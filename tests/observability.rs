//! Observability is inert: tracing, metrics and the slow-query log may
//! watch the engine but never steer it. These tests pin that down from
//! the outside — the same workload run with observability enabled,
//! disabled, and at different worker-pool sizes must produce
//! byte-identical decompositions and byte-identical write-ahead logs —
//! and exercise the SQL surface (`SHOW METRICS`, `SHOW SLOW QUERIES`,
//! `SHOW REPLICATION STATUS`, `EXPLAIN ANALYZE`) end to end.
//!
//! Every test that reads or toggles the process-global registry takes
//! `obs_lock()` first: the flag and the counters are shared across the
//! whole test binary, so these tests serialize among themselves.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use maybms_core::codec::encode_wsd;
use maybms_core::exec::{compile, Executor, WorkerPool};
use maybms_obs::MetricValue;
use maybms_sql::optimizer::optimize;
use maybms_sql::plan::lower_select;
use maybms_sql::{parse, Session, Statement};
use maybms_storage::{delta_path_for, wal_path_for};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("maybms-obs-test-{tag}-{}.maybms", std::process::id()))
}

fn wipe(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(wal_path_for(path));
    let _ = std::fs::remove_file(delta_path_for(path));
}

/// A workload touching every instrumented layer: DDL and or-set DML
/// (WAL appends), a repair (normalization), world-set and confidence
/// queries (executor, probability), a transaction, and an
/// EXPLAIN ANALYZE (per-node tracing).
const WORKLOAD: &str = "CREATE TABLE patients (pid INT, name TEXT, diagnosis TEXT); \
     CREATE TABLE treats (diagnosis TEXT, drug TEXT, cost INT); \
     INSERT INTO patients VALUES \
       (1, 'ann', {'flu': 0.3, 'cold': 0.7}), \
       (2, 'bob', 'flu'), \
       (3, 'cyd', {'flu', 'angina'}); \
     INSERT INTO treats VALUES \
       ('flu', 'oseltamivir', 30), ('cold', 'rest', 0), ('angina', 'nitro', 55); \
     REPAIR KEY patients(pid); \
     BEGIN; \
     UPDATE patients SET name = 'anne' WHERE pid = 1; \
     INSERT INTO treats VALUES ('cold', 'tea', 2); \
     COMMIT";

const QUERIES: &[&str] = &[
    "SELECT POSSIBLE name FROM patients WHERE diagnosis = 'flu'",
    "SELECT CERTAIN name FROM patients WHERE diagnosis = 'flu'",
    "SELECT p.name, t.drug, PROB() FROM patients p, treats t \
     WHERE p.diagnosis = t.diagnosis ORDER BY p.name, t.drug",
];

/// Runs the workload in a fresh durable database and returns every
/// artifact observability could conceivably perturb: the rendered query
/// answers, the encoded decomposition, and the raw WAL bytes.
fn run_workload(tag: &str, workers: usize) -> (String, Vec<u8>, Vec<u8>) {
    let path = scratch(tag);
    wipe(&path);
    let mut s = Session::open(&path)
        .expect("open database")
        .with_worker_pool(Arc::new(WorkerPool::new(workers)));
    // log every query so the slow-log machinery itself runs
    s.set_slow_query_threshold(Some(Duration::ZERO));
    s.execute_script(WORKLOAD).expect("workload");
    let mut answers = String::new();
    for q in QUERIES {
        let r = s.execute(q).expect("query");
        let t = r.table().expect("table result");
        for row in t.rows() {
            answers.push_str(&format!("{row:?}\n"));
        }
    }
    // timings in the output differ run to run; executing it must not
    s.execute(&format!("EXPLAIN ANALYZE {}", QUERIES[2])).expect("explain analyze");
    let state = encode_wsd(s.wsd());
    drop(s);
    let wal = std::fs::read(wal_path_for(&path)).expect("read WAL");
    wipe(&path);
    (answers, state, wal)
}

#[test]
fn observability_never_changes_results_or_wal_bytes() {
    let _guard = obs_lock();
    let (answers, state, wal) = run_workload("ref", 1);
    assert!(!answers.is_empty() && !wal.is_empty());
    for enabled in [true, false] {
        maybms_obs::set_enabled(enabled);
        for workers in [1usize, 2, 4] {
            let (a, s, w) = run_workload("probe", workers);
            assert_eq!(a, answers, "answers diverged (obs={enabled}, workers={workers})");
            assert_eq!(s, state, "decomposition diverged (obs={enabled}, workers={workers})");
            assert_eq!(w, wal, "WAL bytes diverged (obs={enabled}, workers={workers})");
        }
    }
    maybms_obs::set_enabled(true);
}

/// Counters for the deterministic families — per-operator row counts
/// and normalization work — keyed by metric name.
fn deterministic_totals() -> BTreeMap<String, u64> {
    maybms_obs::global()
        .snapshot()
        .into_iter()
        .filter_map(|(name, v)| {
            let deterministic = name.starts_with("exec.rows.") || name.starts_with("normalize.");
            match v {
                MetricValue::Counter(n) if deterministic => Some((name, n)),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn deterministic_counters_agree_across_worker_counts() {
    let _guard = obs_lock();
    maybms_obs::set_enabled(true);
    let mut reference: Option<BTreeMap<String, u64>> = None;
    for workers in [1usize, 2, 4] {
        let before = deterministic_totals();
        let (_, _, _) = run_workload("counters", workers);
        let after = deterministic_totals();
        let delta: BTreeMap<String, u64> = after
            .into_iter()
            .map(|(k, v)| {
                let base = before.get(&k).copied().unwrap_or(0);
                (k, v - base)
            })
            .collect();
        assert!(
            delta.values().any(|&v| v > 0),
            "workload must move the exec.rows.*/normalize.* counters"
        );
        match &reference {
            None => reference = Some(delta),
            Some(exp) => {
                assert_eq!(&delta, exp, "counter totals diverged at {workers} workers")
            }
        }
    }
}

#[test]
fn show_statements_report_live_observability_data() {
    let _guard = obs_lock();
    maybms_obs::set_enabled(true);
    let mut s = Session::new();
    s.set_slow_query_threshold(Some(Duration::ZERO));
    s.execute_script(WORKLOAD).expect("workload");
    for q in QUERIES {
        s.execute(q).expect("query");
    }

    // every world mode counts one confidence call per statement
    let calls = || {
        let snapshot = maybms_obs::global().snapshot();
        match snapshot.into_iter().find(|(n, _)| n == "prob.confidence_calls") {
            Some((_, MetricValue::Counter(n))) => n,
            other => panic!("prob.confidence_calls: {other:?}"),
        }
    };
    for q in ["SELECT POSSIBLE name FROM patients", "SELECT EXPECTED COUNT() FROM patients"] {
        let before = calls();
        s.execute(q).expect("world-mode query");
        assert_eq!(calls() - before, 1, "{q}");
    }

    // SHOW METRICS: live counters as ordinary rows, LIKE narrows them.
    let all = s.execute("SHOW METRICS").expect("show metrics");
    let all = all.table().expect("table");
    assert!(all.len() > 10, "registry should hold many metrics by now");
    let execs = s.execute("SHOW METRICS LIKE 'exec.rows.%'").expect("show metrics like");
    let execs = execs.table().expect("table");
    assert!(!execs.is_empty() && execs.len() < all.len());
    for row in execs.rows() {
        assert!(format!("{:?}", row[0]).contains("exec.rows."));
    }

    // SHOW SLOW QUERIES: threshold zero logs everything, newest last.
    let slow = s.execute("SHOW SLOW QUERIES").expect("show slow queries");
    let slow = slow.table().expect("table");
    assert!(!slow.is_empty());
    let phases = format!("{:?}", slow.rows().last().unwrap());
    for phase in ["parse", "total"] {
        assert!(phases.contains(phase), "slow-log phases missing {phase}: {phases}");
    }

    // SHOW REPLICATION STATUS: an in-memory session is a standalone.
    let status = s.execute("SHOW REPLICATION STATUS").expect("replication status");
    let status = status.table().expect("table");
    assert_eq!(status.len(), 1);
    assert!(format!("{:?}", status.rows()[0]).contains("standalone"));
}

#[test]
fn explain_analyze_reports_per_node_timings() {
    let _guard = obs_lock();
    maybms_obs::set_enabled(true);
    let mut s = Session::new();
    s.execute_script(WORKLOAD).expect("workload");
    let r = s.execute(&format!("EXPLAIN ANALYZE {}", QUERIES[2])).expect("explain analyze");
    let text = r.ack();
    assert!(text.contains("actual rows="), "missing actuals:\n{text}");
    assert!(text.contains("time="), "missing per-node timings:\n{text}");
    assert!(text.contains("-- timing"), "missing phase footer:\n{text}");
    // plain EXPLAIN stays estimate-only
    let r = s.execute(&format!("EXPLAIN {}", QUERIES[2])).expect("explain");
    let text = r.ack();
    assert!(!text.is_empty(), "EXPLAIN must produce a plan");
    assert!(!text.contains("actual rows="), "plain EXPLAIN must not execute:\n{text}");
}

/// `EXPLAIN ANALYZE` annotates every node the executor ran, and only
/// those: over plans holding an elided and a kept `DISTINCT`, an
/// equi-join, a θ-join, `UNION` and `EXCEPT`, every line of the physical
/// section carries actuals, and there are exactly as many lines as the
/// executor's traced run takes samples.
#[test]
fn explain_analyze_annotates_every_node_it_ran() {
    let _guard = obs_lock();
    let mut s = Session::new();
    s.execute_script(WORKLOAD).expect("workload");
    let cases: &[(&str, &[&str], &[&str])] = &[
        (
            "SELECT DISTINCT * FROM treats WHERE cost > 1 UNION SELECT * FROM treats \
             WHERE cost < 40 EXCEPT SELECT * FROM treats WHERE drug = 'rest'",
            &["Union", "Difference", "Filter"],
            &["Dedup"],
        ),
        ("SELECT DISTINCT diagnosis FROM patients", &["Dedup", "Project [diagnosis]"], &[]),
        (
            "SELECT p.name, t.drug FROM patients p, treats t WHERE p.diagnosis = t.diagnosis",
            &["HashJoin [p.diagnosis = t.diagnosis]"],
            &["NestedLoopJoin"],
        ),
        (
            "SELECT p.name, t.drug FROM patients p, treats t WHERE t.cost > p.pid",
            &["NestedLoopJoin on (t.cost > p.pid)"],
            &["HashJoin"],
        ),
    ];
    for &(sql, present, absent) in cases {
        let text = s.execute(&format!("EXPLAIN ANALYZE {sql}")).expect("explain analyze");
        let text = text.ack();
        let physical: Vec<&str> = text
            .lines()
            .skip_while(|l| !l.starts_with("-- physical plan"))
            .skip(1)
            .take_while(|l| !l.starts_with("-- timing"))
            .collect();
        for line in &physical {
            assert!(line.contains("actual rows="), "node without actuals: {line}\n{text}");
        }
        let section = physical.join("\n");
        for label in present {
            assert!(section.contains(label), "{label} missing:\n{text}");
        }
        for label in absent {
            assert!(!section.contains(label), "unexpected {label}:\n{text}");
        }

        let Statement::Select(sel) = parse(sql).expect("parse") else { panic!("{sql}") };
        let raw = lower_select(&sel).expect("lower");
        let plan = compile(&optimize(&raw, s.wsd()).expect("optimize"), s.wsd()).expect("compile");
        let (_, samples) = Executor::sequential().run_traced(&plan, s.wsd()).expect("run");
        assert_eq!(physical.len(), samples.len(), "one line per executed node:\n{text}");
    }
}
