//! A persistent MayBMS REPL: the first end-to-end scenario where a
//! database outlives its process.
//!
//! Run with `cargo run --example repl -- mydb.maybms` (the path defaults
//! to `maybms.db` in the current directory). The file is opened or
//! created; crash recovery — loading the last snapshot (base + any
//! incremental overlay) and replaying the write-ahead log — happens
//! inside `Session::open`. The unit of durability is the **transaction**:
//! outside `BEGIN`/`COMMIT` every mutating statement autocommits (one WAL
//! record, one fsync), inside a transaction the whole group commits under
//! a single fsync. `CHECKPOINT` compacts the log on demand (incremental —
//! changed pages only — when possible; `CHECKPOINT FULL` forces a fresh
//! base snapshot), and quitting (`\q` or EOF) checkpoints once more so
//! the next start loads a snapshot instead of replaying the log.
//!
//! On open the REPL prints the database's snapshot **generation** and
//! last **WAL LSN** — the two coordinates replication speaks in (a
//! follower at LSN x has applied exactly the first x committed records;
//! see `examples/replica.rs` for shipping this database to read
//! replicas).
//!
//! ```sql
//! CREATE TABLE person (ssn INT, name TEXT);
//! INSERT INTO person VALUES ({1: 0.6, 2: 0.4}, 'ann'), (2, 'bob');
//! BEGIN;                                  -- buffer the next mutations
//! UPDATE person SET name = 'anna' WHERE ssn = 1;
//! DELETE FROM person WHERE ssn = 2;
//! COMMIT;                                 -- one WAL record, one fsync
//! REPAIR KEY person(ssn);
//! SELECT POSSIBLE ssn, name, PROB() FROM person;
//! CHECKPOINT;      -- incremental when possible; CHECKPOINT FULL forces a base rewrite
//! \w          -- print the current decomposition
//! \q          -- checkpoint and quit
//! ```
//!
//! Inside a transaction the prompt becomes `maybms*>`; quitting with a
//! transaction still open rolls it back (uncommitted work never reaches
//! the log). Errors print through the structured `SessionError` display —
//! parse / plan / storage / transaction messages already name their
//! category, execution errors get an `execute error:` prefix.

use std::io::{BufRead, Write};

use maybms_sql::{QueryResult, Session, SessionError};

/// One structured error line. Parse ("parse error in …"), plan
/// ("planning failed: …"), storage ("storage error: …") and transaction
/// ("transaction error: …") displays already name their category; only
/// execution errors carry the raw engine message and need a prefix.
fn report(e: &SessionError) -> String {
    match e {
        SessionError::Execute { .. } => format!("execute error: {e}"),
        _ => format!("{e}"),
    }
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "maybms.db".into());
    let mut session = match Session::open(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open database {path}: {e}");
            std::process::exit(1);
        }
    };
    let stats = session.wsd().stats();
    println!(
        "MayBMS-rs — database {path} (generation {}, WAL LSN {}): \
         {} relation(s), {} template tuple(s), {} worlds",
        session.storage_generation().unwrap_or(0),
        session.last_lsn().unwrap_or(0),
        stats.relations,
        stats.template_tuples,
        session.wsd().world_count()
    );
    println!(
        "'\\q' checkpoints and quits, '\\w' dumps the decomposition, \
         '\\metrics' dumps the metrics registry (Prometheus text format)"
    );

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if !buffer.is_empty() {
            print!("   ...> ");
        } else if session.in_transaction() {
            print!("maybms*> ");
        } else {
            print!("maybms> ");
        }
        std::io::stdout().flush().expect("stdout");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        match trimmed {
            "\\q" | "exit" | "quit" => break,
            "\\w" => {
                print!("{}", maybms_core::display::render(session.wsd()));
                continue;
            }
            "\\metrics" => {
                // the same text a Prometheus scrape of a serving primary
                // gets (SHOW METRICS returns it as rows instead)
                print!("{}", maybms_obs::prometheus_text(maybms_obs::global()));
                continue;
            }
            "" => continue,
            _ => {}
        }
        buffer.push_str(trimmed);
        buffer.push(' ');
        // execute on a terminating semicolon (or single-line statements,
        // matching the sql_shell example's behavior)
        if !trimmed.ends_with(';') && buffer.split_whitespace().count() < 3 {
            continue;
        }
        let stmt = buffer.trim().trim_end_matches(';').to_string();
        buffer.clear();
        if stmt.is_empty() {
            continue;
        }
        match session.execute(&stmt) {
            Ok(r) => println!("{}", r.render(50).trim_end()),
            Err(e) => println!("{}", report(&e)),
        }
    }
    if session.in_transaction() {
        // uncommitted work must not be checkpointed into the snapshot
        match session.execute("ROLLBACK") {
            Ok(r) => println!("open transaction rolled back on exit: {}", r.ack()),
            Err(e) => eprintln!("{}", report(&e)),
        }
    }
    match session.execute("CHECKPOINT") {
        Ok(QueryResult::Text(t)) => println!("{t}"),
        Ok(_) => {}
        Err(e) => eprintln!("checkpoint on exit failed: {e}"),
    }
    println!("bye");
}
