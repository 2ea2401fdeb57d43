//! Per-layer attribution from outside the program: every number here is
//! a timed call into a public function on the workload's own image and
//! statements, or a delta of `maybms_obs::global()` counters across the
//! measured passes. Spans inside the program are a later change.

use std::collections::HashMap;
use std::time::Instant;

use maybms_core::codec::{decode_wsd, encode_wsd};
use maybms_core::exec::{compile, global_pool, Executor};
use maybms_core::normalize::normalize_in;
use maybms_core::stats::WsdStats;
use maybms_core::{prob, Wsd};
use maybms_obs::MetricValue;
use maybms_relational::{pretty, ColumnType, Relation, Schema, Tuple, Value};
use maybms_server::proto::{self, Request, Response};
use maybms_sql::ast::{ExpectedAgg, SelectStmt, WorldMode};
use maybms_sql::optimizer::optimize_with_stats;
use maybms_sql::plan::lower_select;
use maybms_sql::{parse, wire, CommitHandle, QueryResult, Session, Statement};
use maybms_storage::Database;

use crate::client::{Conn, Pass, Tracer, REPLAY_STATEMENTS};
use crate::data::{build_image, INSERT_KEY_BASE, RENDER_ROW_LIMIT};
use crate::report::{median, percentile, Metrics};
use crate::run::{latencies, Live, Tally};
use crate::workload::{Kind, Spec, INSERT_ACK};

/// Times each distinct statement is replayed; layer times are medians.
const REPLAY_REPS: usize = 5;
/// Calls behind each reference timing that does not depend on a statement.
const REFERENCE_REPS: usize = 5;
const WAL_APPENDS: usize = 200;
const RTT_PROBES: usize = 300;
const GROUP_COMMITS: usize = 100;

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Median microseconds of `reps` calls of `f`.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                us(t)
            })
            .collect(),
    )
}

/// Every counter of the process-global registry.
pub fn counters() -> HashMap<String, u64> {
    maybms_obs::global()
        .snapshot()
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) => Some((name, n)),
            _ => None,
        })
        .collect()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Ratios and counts read off the program's own counters across the two
/// measured passes.
pub fn counter_metrics(
    before: &HashMap<String, u64>,
    after: &HashMap<String, u64>,
    plain: &[Pass],
    traced: &[Pass],
    spec: &Spec,
    m: &mut Metrics,
) {
    let delta = |name: &str| {
        (after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)) as f64
    };
    let delta_prefix = |prefix: &str| -> f64 {
        after
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (v - before.get(n).copied().unwrap_or(0)) as f64)
            .sum()
    };
    let both = || plain.iter().chain(traced);
    let commits = both()
        .flat_map(|p| &p.samples)
        .filter(|s| spec.templates[s.tpl].kind == Kind::Write)
        .count() as f64;
    let result_rows: f64 = both().map(|p| p.result_rows as f64).sum();
    let rows = delta_prefix("exec.rows.");
    let (hits, misses) = (delta("exec.vec.memo_hits"), delta("exec.vec.memo_misses"));
    m.set("server.requests", delta("server.requests"));
    m.set(
        "sql.group.fsyncs_per_commit",
        ratio(delta("wal.fsyncs"), commits),
    );
    m.set(
        "storage.wal_bytes_per_commit",
        ratio(delta("wal.bytes"), commits),
    );
    m.set(
        "core.exec_fallback_share",
        ratio(delta("exec.vec.fallback_rows"), rows),
    );
    m.set("core.exec_memo_hit_share", ratio(hits, hits + misses));
    m.set("core.exec_rows_per_result_row", ratio(rows, result_rows));
}

/// What depends on the image only: the shape of the decomposition, the
/// reference costs of copying, encoding and normalizing all of it, and
/// the storage layer's open, replay, checkpoint and append.
pub fn image_metrics(live: &Live, seed: u64, m: &mut Metrics) {
    let times = live.image.times;
    m.set("census.generate_s", times.generate_s);
    m.set("census.load_s", times.load_s);
    m.set("storage.checkpoint_us", times.checkpoint_s * 1e6);
    m.set(
        "storage.checkpoint_bytes",
        live.image.checkpoint_bytes as f64,
    );
    if let Some(census) = &live.image.census {
        let t = Instant::now();
        std::hint::black_box(maybms_census::to_wsd(census).expect("to_wsd"));
        m.set("census.to_wsd_s", t.elapsed().as_secs_f64());
    }

    let snap = live.server.commit_handle().snapshot();
    let wsd = snap.wsd();
    m.set("core.wsd_components", wsd.num_components() as f64);
    m.set("core.wsd_log10_worlds", wsd.world_count().log10());
    m.set("core.wsd_size_bytes", wsd.size_bytes() as f64);
    m.set("core.wsd_clone_us", time_us(REFERENCE_REPS, || wsd.clone()));
    let mut copies: Vec<Wsd> = (0..REFERENCE_REPS).map(|_| wsd.clone()).collect();
    m.set(
        "core.wsd_drop_us",
        time_us(REFERENCE_REPS, || drop(copies.pop())),
    );
    let bytes = encode_wsd(wsd);
    m.set("core.codec_bytes", bytes.len() as f64);
    m.set(
        "core.codec_encode_us",
        time_us(REFERENCE_REPS, || encode_wsd(wsd)),
    );
    m.set(
        "core.codec_decode_us",
        time_us(REFERENCE_REPS, || decode_wsd(&bytes).expect("decode")),
    );
    let pool = global_pool();
    let mut copies: Vec<Wsd> = (0..REFERENCE_REPS).map(|_| wsd.clone()).collect();
    m.set(
        "core.normalize_us",
        time_us(REFERENCE_REPS, || {
            normalize_in(copies.pop().as_mut().expect("a copy per call"), &pool)
        }),
    );

    // a second copy of the image: the served one is open in the server
    let dir = live
        .image
        .path
        .parent()
        .expect("image has a directory")
        .join("reference");
    let copy = build_image(live.image.kind, seed, &dir);
    let t = Instant::now();
    let recovered = Database::open(&copy.path).expect("open reference image");
    m.set("storage.open_us", us(t));
    let payload = recovered
        .snapshot
        .as_deref()
        .expect("reference image has a snapshot");
    let mut session = Session::with_wsd(decode_wsd(payload).expect("decode reference snapshot"));
    let t = Instant::now();
    let mut stmts = 0usize;
    for record in &recovered.records {
        for stmt in wire::decode_wal_record(record).expect("decode WAL record") {
            session.run(&stmt).expect("replay statement");
            stmts += 1;
        }
    }
    m.set(
        "storage.replay_stmts_per_s",
        ratio(stmts as f64, t.elapsed().as_secs_f64()),
    );
    drop(recovered);

    // WAL append with and without the fsync, on a database of its own
    let scratch = Database::open(dir.join("scratch.maybms")).expect("open scratch database");
    let mut db = scratch.db;
    let record = commit_record(&parse(&insert_sql(0)).expect("parse insert"));
    let synced = time_us(WAL_APPENDS, || db.append(&record).expect("append"));
    db.set_sync(false);
    let unsynced = time_us(WAL_APPENDS, || db.append(&record).expect("append"));
    m.set("storage.wal_append_us", synced);
    m.set("storage.wal_append_nosync_us", unsynced);
    m.set("storage.fsync_us", synced - unsynced);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

fn insert_sql(i: i64) -> String {
    // clear of the keys the clients insert
    format!(
        "INSERT INTO kv VALUES ({}, 1)",
        INSERT_KEY_BASE + 500_000_000 + i
    )
}

/// The WAL record the group committer writes for a one-statement group.
fn commit_record(stmt: &Statement) -> Vec<u8> {
    wire::encode_commit_group(&[wire::encode_statement(stmt).expect("encode statement")])
}

/// Layer times of one template: metric name → samples.
#[derive(Default)]
struct Acc(HashMap<&'static str, Vec<f64>>);

impl Acc {
    fn add(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v.clone()))
    }
}

/// Times `f` as one step of a replay and keeps its interval.
fn step<T>(
    steps: &mut Vec<(&'static str, Instant, Instant)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    let out = f();
    steps.push((name, start, Instant::now()));
    out
}

/// The `prob::*_in` call and the table a `SELECT` of this shape makes of
/// the answer decomposition — `Session::run_select_inner`, from outside.
fn answer_table(sel: &SelectStmt, answer: &Wsd) -> Relation {
    let pool = global_pool();
    let scalar = |name: &str, v: f64| {
        Relation::from_rows_unchecked(
            Schema::new(vec![(name, ColumnType::Float)]),
            vec![Tuple::new(vec![Value::Float(v)])],
        )
    };
    let schema = answer
        .relation("result")
        .expect("result relation")
        .schema
        .clone();
    match (&sel.expected, sel.mode, sel.prob) {
        (Some(ExpectedAgg::Count), _, _) => scalar(
            "expected_count",
            prob::expected_count_in(answer, "result", &pool).expect("expected count"),
        ),
        (Some(ExpectedAgg::Sum(col)), _, _) => scalar(
            "expected_sum",
            prob::expected_sum_in(answer, "result", col, &pool).expect("expected sum"),
        ),
        (None, WorldMode::Certain, _) => Relation::from_rows_unchecked(
            schema,
            prob::certain_tuples_in(answer, "result", &pool).expect("certain tuples"),
        ),
        (None, WorldMode::Possible, false) => Relation::from_rows_unchecked(
            schema,
            prob::possible_tuples_in(answer, "result", &pool).expect("possible tuples"),
        ),
        (None, _, true) if sel.items.is_empty() => scalar(
            "prob",
            prob::nonempty_confidence_in(answer, "result", &pool).expect("confidence"),
        ),
        (None, _, true) => {
            let with_p = schema.concat(&Schema::new(vec![("prob", ColumnType::Float)]));
            let rows = prob::tuple_confidence_in(answer, "result", &pool)
                .expect("tuple confidence")
                .into_iter()
                .map(|(t, p)| {
                    let mut vals = t.into_values();
                    vals.push(Value::Float(p));
                    Tuple::new(vals)
                })
                .collect();
            Relation::from_rows_unchecked(with_p, rows)
        }
        (None, WorldMode::AllWorlds, false) => {
            panic!("the workloads send no statement with a world-set answer")
        }
    }
}

/// Encodes and decodes a reply of this text, as server and client do.
fn proto_reply(text: String) -> usize {
    let mut buf = Vec::with_capacity(text.len() + 32);
    proto::send_response(&mut buf, &Response::Ok { lsn: 0, text }).expect("encode reply");
    std::hint::black_box(proto::recv_response(&mut &buf[..]).expect("decode reply"));
    buf.len()
}

/// Replays one statement through the public functions on its path, once,
/// recording a span per call under one replay span. Returns the reply.
fn replay(
    sql: &str,
    kind: Kind,
    handle: &CommitHandle,
    view: &mut Session,
    stats: &mut WsdStats,
    wal: &mut Database,
    steps: &mut Vec<(&'static str, Instant, Instant)>,
) -> String {
    step(steps, "server.proto_req", || {
        let mut buf = Vec::with_capacity(sql.len() + 16);
        proto::send_request(
            &mut buf,
            &Request::Query {
                sql: sql.to_string(),
            },
        )
        .expect("encode");
        std::hint::black_box(proto::recv_request(&mut &buf[..]).expect("decode"));
    });
    let stmt = step(steps, "sql.parse", || parse(sql).expect("parse"));
    let snap = handle.snapshot();
    let text = match (&stmt, kind) {
        (Statement::Select(sel), Kind::Read) => {
            step(steps, "sql.snapshot_install", || {
                view.install_snapshot(&handle.snapshot())
                    .expect("install snapshot")
            });
            let wsd = snap.wsd();
            let plan = step(steps, "sql.optimize", || {
                let raw = lower_select(sel).expect("lower");
                optimize_with_stats(&raw, wsd, stats).expect("optimize")
            });
            let phys = step(steps, "core.compile", || {
                compile(&plan, wsd).expect("compile")
            });
            let pool = global_pool();
            let answer = step(steps, "core.exec_run", || {
                Executor::new(&pool).run(&phys, wsd).expect("run")
            });
            let table = step(steps, "core.prob", || answer_table(sel, &answer));
            step(steps, "relational.render", || {
                pretty::render(&table, RENDER_ROW_LIMIT)
            })
        }
        (_, Kind::Write) => {
            // the writer's copy-on-write: the published snapshot shares
            // the decomposition, so the first mutation copies it
            let mut session = Session::writable_at(&snap);
            let result = step(steps, "sql.apply", || session.run(&stmt).expect("apply"));
            let record = step(steps, "sql.wire_encode", || commit_record(&stmt));
            step(steps, "storage.wal_append", || {
                wal.append(&record).expect("append")
            });
            match result {
                QueryResult::Text(t) => t,
                other => panic!("a write answered with {other:?}"),
            }
        }
        (other, Kind::Read) => panic!("read template sent {other:?}"),
    };
    step(steps, "server.proto_resp", || proto_reply(text.clone()));
    text
}

/// Layers on the blocking path of a statement of each kind; their medians
/// are summed against the end-to-end median.
const READ_PATH: &[&str] = &[
    "sql.parse",
    "sql.snapshot_install",
    "sql.optimize",
    "core.compile",
    "core.exec_run",
    "core.prob",
    "relational.render",
    "server.proto_resp",
];
const WRITE_PATH: &[&str] = &[
    "sql.parse",
    "sql.apply",
    "sql.wire_encode",
    "storage.wal_append",
    "server.proto_resp",
];

/// What depends on the statements: the round-trip floor, each layer on
/// the path of each distinct statement, and how much of the end-to-end
/// median those layers leave unexplained. Returns the keys its own
/// commits inserted, for the durability check.
pub fn statement_metrics(
    live: &mut Live,
    plain: &[Pass],
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Vec<i64> {
    let spec = live.spec;
    let handle = live.server.commit_handle();

    // a statement that fails to parse: frames, sockets, threads, nothing else
    let mut conn = Conn::connect(live.server.addr()).expect("connect");
    let floor = time_us(RTT_PROBES, || conn.round_trip("!").expect("round trip"));
    m.set("server.rtt_floor_us", floor);
    drop(conn);

    let dir = live
        .image
        .path
        .parent()
        .expect("image has a directory")
        .join("replay");
    std::fs::create_dir_all(&dir).expect("create replay directory");
    let mut wal = Database::open(dir.join("scratch.maybms"))
        .expect("open scratch database")
        .db;
    let mut view = Session::view_at(&handle.snapshot());
    let mut stats = WsdStats::new();

    let total = plain.iter().map(|p| p.samples.len()).sum::<usize>().max(1) as f64;
    let mut weighted: HashMap<&'static str, f64> = HashMap::new();
    let (mut path_us, mut e2e_us) = (0.0, 0.0);
    println!("  layers on each template's blocking path (median us):");
    let mut stmt_id = 0u32;
    for (i, tpl) in spec.templates.iter().enumerate() {
        let seen: Vec<&String> = plain
            .iter()
            .flat_map(|p| &p.seen[i])
            .take(REPLAY_STATEMENTS)
            .collect();
        let observed = latencies(plain, |t| t == i);
        if seen.is_empty() || observed.is_empty() {
            continue;
        }
        let mut acc = Acc::default();
        for sql in seen {
            let mut reply = String::new();
            for _ in 0..REPLAY_REPS {
                stmt_id += 1;
                let mut steps = Vec::new();
                let begin = Instant::now();
                reply = replay(
                    sql, tpl.kind, &handle, &mut view, &mut stats, &mut wal, &mut steps,
                );
                let root = tracer.record("replay.statement", 0, stmt_id, begin, Instant::now());
                for (name, start, end) in steps {
                    tracer.record(name, root, stmt_id, start, end);
                    acc.add(name, end.duration_since(start).as_secs_f64() * 1e6);
                }
            }
            // the whole statement through the embedded session, and the
            // check that the replay above took the same path
            let mut embedded = String::new();
            for _ in 0..REPLAY_REPS {
                let mut session = match tpl.kind {
                    Kind::Read => Session::view_at(&handle.snapshot()),
                    Kind::Write => Session::writable_at(&handle.snapshot()),
                };
                let t = Instant::now();
                let result = session.execute(sql).expect("embedded execute");
                acc.add("sql.session_execute", us(t));
                embedded = match result {
                    QueryResult::Table(t) => pretty::render(&t, RENDER_ROW_LIMIT),
                    QueryResult::Text(t) => t,
                    QueryResult::WorldSet(_) => panic!("{sql} answered with a world-set"),
                };
            }
            tally.attempted += 1;
            if embedded != reply {
                eprintln!("replay of {sql} disagrees with Session::execute");
                tally.failed += 1;
            }
        }
        let share = observed.len() as f64 / total;
        for name in acc.0.keys() {
            *weighted.entry(name).or_default() += share * acc.median(name);
        }
        let path = if tpl.kind == Kind::Read {
            READ_PATH
        } else {
            WRITE_PATH
        };
        let on_path = floor + path.iter().map(|n| acc.median(n)).sum::<f64>();
        let p50 = percentile(&observed, 50.0);
        path_us += share * on_path;
        e2e_us += share * p50;
        let parts: Vec<String> = path
            .iter()
            .map(|n| format!("{n} {:.1}", acc.median(n)))
            .collect();
        println!(
            "    {:<18} p50 {p50:.1} us = floor {floor:.1} + {} (sum {on_path:.1}; Session::execute {:.1})",
            tpl.name,
            parts.join(" + "),
            acc.median("sql.session_execute")
        );
    }
    for (span, metric) in [
        ("server.proto_req", "server.proto_req_us"),
        ("server.proto_resp", "server.proto_resp_us"),
        ("sql.parse", "sql.parse_us"),
        ("sql.optimize", "sql.optimize_us"),
        ("sql.session_execute", "sql.session_execute_us"),
        ("sql.snapshot_install", "sql.snapshot_install_us"),
        ("sql.apply", "sql.apply_us"),
        ("sql.wire_encode", "sql.wire_encode_us"),
        ("core.compile", "core.compile_us"),
        ("core.exec_run", "core.exec_run_us"),
        ("core.prob", "core.prob_us"),
        ("relational.render", "relational.render_us"),
    ] {
        m.set(metric, weighted.get(span).copied().unwrap_or(0.0));
    }
    m.set("trace.unattributed_share", 1.0 - ratio(path_us, e2e_us));
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);

    // one caller through the live group committer: queue, apply, encode,
    // append, fsync, publish, ack
    let mut acked = Vec::new();
    if spec.templates.iter().any(|t| t.kind == Kind::Write) {
        let mut took = Vec::with_capacity(GROUP_COMMITS);
        for i in 0..GROUP_COMMITS as i64 {
            let stmt = parse(&insert_sql(i)).expect("parse insert");
            let t = Instant::now();
            let ack = handle.commit(vec![stmt]);
            took.push(us(t));
            tally.attempted += 1;
            match ack {
                Ok(a) if a.results.first().map(QueryResult::ack) == Some(INSERT_ACK) => {
                    acked.push(INSERT_KEY_BASE + 500_000_000 + i)
                }
                other => {
                    eprintln!("group commit probe failed: {other:?}");
                    tally.failed += 1;
                }
            }
        }
        m.set("sql.group_commit_us", median(took));
    }
    acked
}
