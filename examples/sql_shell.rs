//! An interactive MayBMS shell: type the paper's SQL dialect against a
//! session preloaded with the §2 medical WSD.
//!
//! Run with: `cargo run --example sql_shell` and try:
//!
//! ```sql
//! SHOW TABLES;
//! SELECT test FROM R WHERE diagnosis = 'pregnancy';
//! SELECT test, PROB() FROM R WHERE diagnosis = 'pregnancy';
//! SELECT POSSIBLE diagnosis, symptom FROM R;
//! SELECT CERTAIN diagnosis FROM R;
//! SELECT EXPECTED COUNT() FROM R WHERE symptom = 'fatigue';
//! EXPLAIN SELECT test FROM R WHERE diagnosis = 'pregnancy';
//! CREATE TABLE t (x INT);
//! INSERT INTO t VALUES ({1: 0.9, 2: 0.1});
//! REPAIR CHECK t: x < 2;
//! \w          -- print the current decomposition
//! \q          -- quit
//! ```

use std::io::{BufRead, Write};

use maybms_sql::Session;

fn main() {
    let mut session = Session::with_wsd(maybms_core::examples::medical_wsd());
    println!("MayBMS-rs shell — medical demo database loaded ('\\q' quits, '\\w' dumps the WSD)");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("maybms> ");
        } else {
            print!("   ...> ");
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
            "" => continue,
            _ => {}
        }
        buffer.push_str(trimmed);
        buffer.push(' ');
        // execute on a terminating semicolon (or single-line statements)
        if !trimmed.ends_with(';') && buffer.split_whitespace().count() < 3 {
            continue;
        }
        if !trimmed.ends_with(';') {
            // allow single-line statements without ';'
        }
        let stmt = buffer.trim().trim_end_matches(';').to_string();
        buffer.clear();
        match session.execute(&stmt) {
            Ok(r) => println!("{}", r.render(50).trim_end()),
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye");
}
