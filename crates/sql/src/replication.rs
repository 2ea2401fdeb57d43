//! WAL-shipping replication: one read-write **primary**, any number of
//! read-only **replicas** (followers).
//!
//! The design leans on two properties earlier PRs established:
//!
//! * the write-ahead log ships **whole transactions** — a record is one
//!   autocommitted statement or one commit group, so applying records in
//!   order can never expose half a transaction;
//! * the engine is **deterministic** — replaying the same statements
//!   produces a byte-identical decomposition (under `maybms_core::codec`),
//!   so a follower that has applied the primary's log prefix up to LSN *x*
//!   holds *provably the same state* the primary had at LSN *x*.
//!
//! # Protocol
//!
//! A follower connects over any ordered byte stream (in-process pipe,
//! unix socket, TCP — the protocol is `maybms_storage::ship`) and sends
//! `Hello { generation, last_lsn }`. The primary compares that position
//! with its WAL:
//!
//! * position within the log → stream `Record { lsn, … }` messages from
//!   there, then keep tailing the log. Only **durable** records are ever
//!   shipped: the primary reads no further than the database's
//!   [`DurableHorizon`], which moves only after an append's write *and*
//!   fsync returned `Ok`, and passes it as the bound of every
//!   [`WalCursor::poll`]. A frame already on disk whose fsync is pending,
//!   or failed and poisoned the database, never leaves — so, short of a
//!   lying fsync, a replica can never get ahead of what the primary
//!   recovers after a crash;
//! * position before the log's `base_lsn` (a checkpoint compacted the
//!   records away) or past the horizon (a foreign timeline) → send one
//!   `Snapshot` message with the full effective state (base + overlay),
//!   which the follower swaps in wholesale, then stream records.
//!
//! A connection cut mid-frame (torn stream) is detected by the message
//! CRCs; the follower simply reconnects with a fresh `Hello` naming its
//! applied LSN and the primary resumes from there. Applying is
//! idempotent-by-LSN, so overlap across reconnects is harmless; a **gap**
//! (a record skipping past `applied_lsn + 1`) is refused loudly.
//! [`follow_with_retry`] packages the reconnect loop: capped exponential
//! [`Backoff`] with jitter between attempts, resumption by LSN, and a
//! stop flag. On the other side, the primary heartbeats while idle
//! (time-based, see [`Primary::with_heartbeat_interval`]) so a follower
//! can bound how stale it might be ([`Replica::is_stale`]) and tails the
//! log event-driven: it blocks on the durable horizon, which every
//! successful append moves, and the heartbeat interval bounds that wait.
//!
//! # Read-only replicas
//!
//! A [`Replica`]'s session answers queries but refuses every mutation,
//! transaction-control statement and `CHECKPOINT` with
//! [`SessionError::ReadOnlyReplica`] — shipped records are applied
//! through an internal path (they were committed on the primary; applying
//! them here is replay, not a new write).
//!
//! ```no_run
//! use maybms_sql::{Session, replication::{Primary, Replica}};
//! use std::os::unix::net::UnixStream;
//!
//! // the primary serves its durable database to followers
//! let mut session = Session::open("db.maybms").unwrap();
//! let primary = Primary::new(&session).expect("a durable session");
//! let (to_primary, from_replica) = UnixStream::pair().unwrap();
//! let server = primary.spawn_serve(from_replica);
//!
//! // a follower syncs and answers queries
//! session.execute("CREATE TABLE t (x INT)").unwrap();
//! let mut replica = Replica::new();
//! let mut conn = replica.connect(to_primary).unwrap();
//! replica.sync_to(&mut conn, session.last_lsn().unwrap()).unwrap();
//! replica.query("SELECT POSSIBLE x FROM t").unwrap();
//! primary.stop();
//! # drop(server);
//! ```

use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use maybms_obs::Counter;

use maybms_core::codec::{decode_wsd, encode_wsd};
use maybms_core::wsd::Wsd;
use maybms_relational::{Error, Result};
use maybms_storage::ship::{recv_msg, send_msg, Msg};
use maybms_storage::wal::{self, Polled, WalCursor};
use maybms_storage::{read_snapshot_state, wal_path_for, DurableHorizon, Vfs};

use crate::session::{QueryResult, Session, SessionError, SessionResult};
use crate::wire;

/// How long without any message from the primary before `SHOW REPLICATION
/// STATUS` reports a replica as stale. The primary heartbeats every 25 ms
/// by default while idle, so a full second of silence means a dead
/// primary, a cut connection, or a stalled serve loop — reads may be
/// arbitrarily behind.
pub const STALE_AFTER: Duration = Duration::from_secs(1);

/// Cached handles into the global metrics registry for the replication
/// layer (one registry lookup per process, one relaxed atomic per event).
struct ReplMetrics {
    /// WAL records streamed to followers (`repl.shipped_records`).
    shipped_records: Arc<Counter>,
    /// Payload bytes of those records (`repl.shipped_bytes`).
    shipped_bytes: Arc<Counter>,
    /// Idle heartbeats sent to followers (`repl.heartbeats`).
    heartbeats: Arc<Counter>,
    /// Follower reconnect attempts after a failed or dropped connection
    /// (`repl.reconnects`).
    reconnects: Arc<Counter>,
    /// Backoff schedules returned to base after a healthy message
    /// (`repl.backoff_resets`).
    backoff_resets: Arc<Counter>,
    /// Shipped records a replica applied (`repl.applied_records`).
    applied_records: Arc<Counter>,
}

fn metrics() -> &'static ReplMetrics {
    static M: OnceLock<ReplMetrics> = OnceLock::new();
    M.get_or_init(|| ReplMetrics {
        shipped_records: maybms_obs::counter("repl.shipped_records"),
        shipped_bytes: maybms_obs::counter("repl.shipped_bytes"),
        heartbeats: maybms_obs::counter("repl.heartbeats"),
        reconnects: maybms_obs::counter("repl.reconnects"),
        backoff_resets: maybms_obs::counter("repl.backoff_resets"),
        applied_records: maybms_obs::counter("repl.applied_records"),
    })
}

/// A replica's position — the only place it is kept — shared lock-free
/// between the applying thread and the replica's session so `SHOW
/// REPLICATION STATUS` can report staleness *as data* without taking the
/// replica mutex: last-applied LSN, the primary's last known durable LSN,
/// and how long ago the primary was last heard from.
#[derive(Debug)]
pub struct ReplStatus {
    applied_lsn: AtomicU64,
    primary_lsn: AtomicU64,
    /// Nanoseconds from `epoch` to the last received message (0 = never).
    last_contact_ns: AtomicU64,
    epoch: Instant,
}

impl ReplStatus {
    fn new() -> ReplStatus {
        ReplStatus {
            applied_lsn: AtomicU64::new(0),
            primary_lsn: AtomicU64::new(0),
            last_contact_ns: AtomicU64::new(0),
            epoch: Instant::now(), // maybms-lint: allow(determinism) -- control-plane wall clock (heartbeat/staleness); applied bytes come solely from WAL records
        }
    }

    fn touch(&self) {
        self.last_contact_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn set_applied(&self, lsn: u64) {
        self.applied_lsn.store(lsn, Ordering::Relaxed);
    }

    /// Raises the primary's known LSN to `lsn` (it never goes back).
    fn raise_primary(&self, lsn: u64) {
        self.primary_lsn.fetch_max(lsn, Ordering::Relaxed);
    }

    /// LSN of the last record the replica has applied.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Relaxed)
    }

    /// The primary's last known durable LSN (0 until the first message).
    pub fn primary_lsn(&self) -> u64 {
        self.primary_lsn.load(Ordering::Relaxed)
    }

    /// How long since the primary was last heard from (since the
    /// replica's construction until the first message arrives).
    pub fn since_last_contact(&self) -> Duration {
        let at = Duration::from_nanos(self.last_contact_ns.load(Ordering::Relaxed));
        self.epoch.elapsed().saturating_sub(at)
    }
}

/// The serving side of replication: streams a durable database's
/// committed records to connected followers.
///
/// A `Primary` is built from the [`Session`] that owns the database
/// ([`Primary::new`]) and keeps only shared handles on it: the database's
/// [`Vfs`], its path and its [`DurableHorizon`]. It therefore runs on any
/// thread next to the session (or the server's group committer) that is
/// executing statements, on whatever filesystem the database lives on —
/// a `FaultVfs` included.
///
/// An idle serve loop blocks on the durable horizon: a commit wakes it
/// at once, and no record past the horizon is ever read. The wait is
/// bounded by the **heartbeat interval**
/// ([`Primary::with_heartbeat_interval`]): while idle, the loop wakes
/// that often, sends a heartbeat so followers can bound staleness (see
/// [`Replica::is_stale`]), and re-polls the log — which is also how a
/// checkpoint's log swap is picked up.
#[derive(Debug, Clone)]
pub struct Primary {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    horizon: DurableHorizon,
    shutdown: Arc<AtomicBool>,
    heartbeat_interval: Duration,
}

impl Primary {
    /// A primary serving `session`'s database, or `None` when the
    /// session is in-memory only.
    pub fn new(session: &Session) -> Option<Primary> {
        let db = session.database()?;
        Some(Primary {
            vfs: Arc::clone(db.vfs()),
            path: db.snapshot_path().to_path_buf(),
            horizon: db.durable_horizon().clone(),
            shutdown: Arc::new(AtomicBool::new(false)),
            heartbeat_interval: Duration::from_millis(25),
        })
    }

    /// Overrides how much idle time passes between heartbeats — and
    /// between re-polls of an idle log (default 25 ms). Followers use
    /// heartbeats to bound their staleness estimate, so this should be
    /// well under the follower's [`Replica::is_stale`] timeout.
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Primary {
        self.heartbeat_interval = interval;
        self
    }

    /// Tells every serve loop to exit at its next poll, and wakes loops
    /// parked on the durable horizon (without moving it) so "next poll"
    /// is now rather than the end of a long idle interval.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.horizon.wake_all();
    }

    /// Whether [`Primary::stop`] was called.
    pub fn is_stopped(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Serves one follower connection, blocking until the stream drops,
    /// the follower misbehaves, or [`Primary::stop`] is called. The
    /// returned error is the reason the connection ended (a disconnected
    /// follower surfaces as an I/O error — reconnection is the
    /// follower's job).
    pub fn serve<S: Read + Write>(&self, mut stream: S) -> Result<()> {
        let hello = recv_msg(&mut stream)?;
        let Msg::Hello { last_lsn, .. } = hello else {
            return Err(Error::Storage(format!(
                "expected Hello to open the conversation, got {hello:?}"
            )));
        };
        let mut follower_lsn = last_lsn;
        let wal_path = wal_path_for(&self.path);
        let mut last_sent = Instant::now(); // maybms-lint: allow(determinism) -- control-plane wall clock (heartbeat/staleness); applied bytes come solely from WAL records
        'catchup: loop {
            if self.is_stopped() {
                return Ok(());
            }
            // Where does the follower stand relative to the current log?
            let head = wal::head(&*self.vfs, &wal_path)?;
            if follower_lsn < head.base_lsn || follower_lsn > self.horizon.lsn() {
                // Behind the last checkpoint (its records were compacted
                // into the snapshot) or from a foreign timeline: full
                // state transfer, then stream from the snapshot's LSN. A
                // checkpoint publishes its snapshot (at the horizon)
                // before it swaps the log, so the snapshot read after the
                // log's head covers at least the log's base.
                let (generation, snap_lsn, payload) = read_snapshot_state(&*self.vfs, &self.path)?
                    .unwrap_or_else(|| (0, 0, encode_wsd(&Wsd::new())));
                if snap_lsn < head.base_lsn {
                    return Err(Error::Storage(format!(
                        "snapshot at LSN {snap_lsn} predates its log (base LSN {})",
                        head.base_lsn
                    )));
                }
                send_msg(&mut stream, &Msg::Snapshot { generation, last_lsn: snap_lsn, payload })?;
                last_sent = Instant::now(); // maybms-lint: allow(determinism) -- control-plane wall clock (heartbeat/staleness); applied bytes come solely from WAL records
                follower_lsn = snap_lsn;
            }
            let mut cursor = match WalCursor::open(Arc::clone(&self.vfs), &wal_path, follower_lsn) {
                Ok(c) => c,
                Err(_) => continue 'catchup, // swapped mid-decision; retry
            };
            loop {
                if self.is_stopped() {
                    return Ok(());
                }
                match cursor.poll(self.horizon.lsn())? {
                    Polled::Reset { .. } => {
                        // a checkpoint swapped the log; the outer loop
                        // re-decides (stream on if still covered, fall
                        // back to a snapshot transfer if not)
                        continue 'catchup;
                    }
                    Polled::Records(recs) if recs.is_empty() => {
                        if last_sent.elapsed() >= self.heartbeat_interval {
                            // the empty poll just proved the cursor is at
                            // the horizon — no file scan needed
                            send_msg(
                                &mut stream,
                                &Msg::Heartbeat {
                                    generation: cursor.generation(),
                                    last_lsn: cursor.lsn(),
                                },
                            )?;
                            metrics().heartbeats.inc();
                            last_sent = Instant::now(); // maybms-lint: allow(determinism) -- control-plane wall clock (heartbeat/staleness); applied bytes come solely from WAL records
                        }
                        // block until a commit moves the horizon, stop is
                        // called, or the next heartbeat is due
                        self.horizon.wait_past(
                            cursor.lsn(),
                            self.heartbeat_interval.saturating_sub(last_sent.elapsed()),
                            &self.shutdown,
                        );
                    }
                    Polled::Records(recs) => {
                        for (lsn, payload) in recs {
                            let bytes = payload.len() as u64;
                            send_msg(&mut stream, &Msg::Record { lsn, payload })?;
                            metrics().shipped_records.inc();
                            metrics().shipped_bytes.add(bytes);
                            last_sent = Instant::now(); // maybms-lint: allow(determinism) -- control-plane wall clock (heartbeat/staleness); applied bytes come solely from WAL records
                            follower_lsn = lsn;
                        }
                    }
                }
            }
        }
    }

    /// [`Primary::serve`] on a new thread; the handle yields the reason
    /// the connection ended.
    pub fn spawn_serve<S: Read + Write + Send + 'static>(
        &self,
        stream: S,
    ) -> JoinHandle<Result<()>> {
        let this = self.clone();
        std::thread::spawn(move || this.serve(stream))
    }
}

/// A follower's live connection to a primary (the stream after the
/// `Hello` handshake was sent).
#[derive(Debug)]
pub struct ReplicaConn<S> {
    stream: S,
}

impl<S: Read + Write> ReplicaConn<S> {
    /// Receives the next message from the primary, blocking. A torn or
    /// corrupt frame (or a dropped connection) is an error — reconnect
    /// with [`Replica::connect`] to resume.
    pub fn recv(&mut self) -> Result<Msg> {
        recv_msg(&mut self.stream)
    }
}

/// The applying side of replication: a **read-only** in-memory session
/// that tracks the primary's log position and swallows its shipped
/// records.
///
/// Queries run as usual through [`Replica::query`] (or
/// [`Replica::session`]); mutations are refused with
/// [`SessionError::ReadOnlyReplica`]. Because replay is deterministic,
/// after applying the primary's prefix up to LSN *x* the replica's
/// decomposition is byte-identical (under the codec) to the primary's
/// state at *x* — `tests/replication.rs` holds that as an invariant.
#[derive(Debug)]
pub struct Replica {
    session: Session,
    generation: u64,
    /// The replica's position, shared with the session so `SHOW
    /// REPLICATION STATUS` reads live values without this struct.
    status: Arc<ReplStatus>,
}

impl Default for Replica {
    fn default() -> Replica {
        Replica::new()
    }
}

impl Replica {
    /// A fresh, empty follower (position 0: the first connection will
    /// receive either the full log from the beginning or a snapshot).
    pub fn new() -> Replica {
        let mut session = Session::new();
        session.set_read_only(true);
        let status = Arc::new(ReplStatus::new());
        session.set_repl_status(Arc::clone(&status));
        Replica {
            session,
            generation: 0,
            status,
        }
    }

    /// The live position view `SHOW REPLICATION STATUS` reads — shareable
    /// with monitoring threads.
    pub fn status(&self) -> &Arc<ReplStatus> {
        &self.status
    }

    /// The read-only session — run SELECTs against it directly.
    pub fn session(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Executes a query against the replica's state. Mutations fail with
    /// [`SessionError::ReadOnlyReplica`].
    pub fn query(&mut self, sql: &str) -> SessionResult<QueryResult> {
        self.session.execute(sql)
    }

    /// LSN of the last record this replica has applied.
    pub fn applied_lsn(&self) -> u64 {
        self.status.applied_lsn()
    }

    /// The snapshot generation of the replica's state.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The primary's last known durable LSN (0 until the first message).
    /// `primary_lsn() == applied_lsn()` means "caught up as of the last
    /// message".
    pub fn primary_lsn(&self) -> u64 {
        self.status.primary_lsn()
    }

    /// How long since the primary was last heard from (any message —
    /// heartbeats keep an idle connection fresh). Counted from the
    /// replica's construction until the first message arrives.
    pub fn since_last_contact(&self) -> Duration {
        self.status.since_last_contact()
    }

    /// Whether the primary has been silent longer than `timeout`. The
    /// primary heartbeats while idle (see
    /// [`Primary::with_heartbeat_interval`], default 25 ms), so with a
    /// timeout comfortably above that interval a stale replica means a
    /// dead primary, a cut connection, or a stalled serve loop — callers
    /// should stop trusting their reads' freshness and reconnect (e.g.
    /// via [`follow_with_retry`]).
    pub fn is_stale(&self, timeout: Duration) -> bool {
        self.since_last_contact() > timeout
    }

    /// Opens the conversation on `stream`: sends `Hello` naming this
    /// replica's position. Reconnecting after a dropped or torn stream is
    /// exactly this call again — the primary resumes from `applied_lsn`.
    pub fn connect<S: Read + Write>(&self, mut stream: S) -> Result<ReplicaConn<S>> {
        send_msg(
            &mut stream,
            &Msg::Hello { generation: self.generation, last_lsn: self.applied_lsn() },
        )?;
        Ok(ReplicaConn { stream })
    }

    /// Applies one received message. Records at or below `applied_lsn`
    /// are skipped (idempotent across reconnects); a record that *skips*
    /// LSNs is a protocol violation and is refused. Returns `true` when
    /// the replica's state advanced.
    pub fn apply_msg(&mut self, msg: Msg) -> SessionResult<bool> {
        self.status.touch();
        match msg {
            Msg::Snapshot { generation, last_lsn, payload } => {
                let wsd = decode_wsd(&payload).map_err(SessionError::storage)?;
                *self.session.wsd_mut() = wsd;
                self.session.cleaning_log.clear();
                self.generation = generation;
                self.status.set_applied(last_lsn);
                self.status.raise_primary(last_lsn);
                Ok(true)
            }
            Msg::Record { lsn, payload } => {
                self.status.raise_primary(lsn);
                let applied = self.applied_lsn();
                if lsn <= applied {
                    return Ok(false); // duplicate across a reconnect
                }
                if lsn != applied + 1 {
                    return Err(SessionError::storage(Error::Storage(format!(
                        "gap in shipped log: applied LSN {applied} but received LSN {lsn}"
                    ))));
                }
                let stmts = wire::decode_wal_record(&payload).map_err(SessionError::storage)?;
                for stmt in &stmts {
                    // the internal replay path: the record committed on
                    // the primary, so the read-only gate does not apply
                    self.session.apply(stmt).map_err(|e| {
                        SessionError::storage(Error::Storage(format!(
                            "replica replay failed on {stmt:?}: {e}"
                        )))
                    })?;
                }
                self.status.set_applied(lsn);
                metrics().applied_records.inc();
                Ok(true)
            }
            Msg::Heartbeat { generation: _, last_lsn } => {
                self.status.raise_primary(last_lsn);
                Ok(false)
            }
            Msg::Hello { .. } => Err(SessionError::storage(Error::Storage(
                "unexpected Hello from the primary".into(),
            ))),
        }
    }

    /// Receives and applies messages until this replica has applied
    /// everything up to (at least) `lsn` — "read your writes" for a
    /// caller that knows the primary's LSN (see [`Session::last_lsn`]).
    pub fn sync_to<S: Read + Write>(
        &mut self,
        conn: &mut ReplicaConn<S>,
        lsn: u64,
    ) -> SessionResult<()> {
        while self.applied_lsn() < lsn {
            let msg = conn.recv().map_err(SessionError::storage)?;
            self.apply_msg(msg)?;
        }
        Ok(())
    }
}

/// Drives a shared replica from its own thread: connects, then applies
/// every incoming message until the stream drops (the returned error is
/// the disconnect reason). The mutex is held only while applying, so
/// queries interleave freely. For a follower that should survive primary
/// restarts and cut connections, use [`follow_with_retry`].
pub fn follow<S: Read + Write>(replica: &Mutex<Replica>, stream: S) -> SessionResult<()> {
    let mut conn = {
        let r = replica.lock().expect("replica lock"); // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
        r.connect(stream).map_err(SessionError::storage)?
    };
    loop {
        let msg = conn.recv().map_err(SessionError::storage)?;
        replica.lock().expect("replica lock").apply_msg(msg)?; // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
    }
}

/// Capped exponential backoff with jitter, for follower reconnects.
///
/// Delay *n* is drawn uniformly from the upper half of
/// `min(base · 2ⁿ, cap)` ("equal jitter": half the ceiling is
/// guaranteed, the rest is random so a fleet of followers that lost the
/// same primary does not reconnect in lockstep). [`Backoff::reset`]
/// returns to the base delay once a connection proves healthy.
///
/// The jitter source is a tiny self-contained xorshift64 — deterministic
/// per seed ([`Backoff::with_seed`]), no dependency, not used for
/// anything security-relevant.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A backoff starting at `base` and capped at `cap` per delay.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        // a fixed golden-ratio seed: callers that care use `with_seed`
        Backoff::with_seed(base, cap, 0x9e37_79b9_7f4a_7c15)
    }

    /// As [`Backoff::new`] with an explicit jitter seed (tests pin the
    /// delay sequence; distinct followers should use distinct seeds).
    pub fn with_seed(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff { base, cap, attempt: 0, rng: seed.max(1) }
    }

    /// The next delay to sleep before re-trying, advancing the attempt
    /// counter.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.base.as_nanos().max(1) as u64;
        let cap = self.cap.as_nanos().max(1) as u64;
        let ceil = base
            .checked_shl(self.attempt.min(32))
            .unwrap_or(u64::MAX)
            .clamp(1, cap);
        self.attempt = self.attempt.saturating_add(1);
        let half = ceil / 2;
        Duration::from_nanos(half + self.next_rand() % (ceil - half).max(1))
    }

    /// Returns to the base delay (call once a connection proves healthy).
    /// A reset that actually cancels pending backoff (attempts were
    /// handed out since the last reset) counts as `repl.backoff_resets`.
    pub fn reset(&mut self) {
        if self.attempt > 0 {
            metrics().backoff_resets.inc();
        }
        self.attempt = 0;
    }

    /// How many delays have been handed out since the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

/// Sleeps `total` in short slices so `stop` is observed promptly.
fn sleep_interruptibly(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let mut left = total;
    while left > Duration::ZERO && !stop.load(Ordering::Relaxed) {
        let s = left.min(slice);
        std::thread::sleep(s);
        left = left.saturating_sub(s);
    }
}

/// [`follow`] that survives a flapping primary: when the connection
/// drops (or cannot be established), it sleeps per `backoff` and calls
/// `connect` again — resuming **idempotently by LSN**, since every
/// reconnect is a fresh `Hello` naming `applied_lsn` and
/// [`Replica::apply_msg`] skips anything already applied. The backoff
/// resets whenever a message arrives, so an actually-healthy connection
/// always restarts the schedule from its base delay.
///
/// Returns `Ok(())` once `stop` is raised (checked between messages,
/// during backoff sleeps, and before each reconnect — a stopped follower
/// parked on a silent connection notices at the next heartbeat). A
/// protocol violation from the primary (e.g. a gap in the shipped log)
/// is returned as the hard error it is; connection-level failures are
/// what the retry loop absorbs.
pub fn follow_with_retry<S, F>(
    replica: &Mutex<Replica>,
    mut connect: F,
    backoff: &mut Backoff,
    stop: &AtomicBool,
) -> SessionResult<()>
where
    S: Read + Write,
    F: FnMut() -> std::io::Result<S>,
{
    while !stop.load(Ordering::Relaxed) {
        let conn = connect().and_then(|stream| {
            replica
                .lock()
                .expect("replica lock") // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
                .connect(stream)
                .map_err(|e| std::io::Error::other(e.to_string()))
        });
        let mut conn = match conn {
            Ok(c) => c,
            Err(_) => {
                metrics().reconnects.inc();
                sleep_interruptibly(backoff.next_delay(), stop);
                continue;
            }
        };
        loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            match conn.recv() {
                Ok(msg) => {
                    replica.lock().expect("replica lock").apply_msg(msg)?; // maybms-lint: allow(no-panic-in-prod) -- lock poisoning means another thread already panicked; fail-stop instead of running on shared state of unknown integrity
                    backoff.reset();
                }
                Err(_) => break, // torn or dropped stream: reconnect
            }
        }
        metrics().reconnects.inc();
        sleep_interruptibly(backoff.next_delay(), stop);
    }
    Ok(())
}
