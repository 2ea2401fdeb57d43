//! Binary encoding of **mutating** statements — the write-ahead-log
//! record format of the durable session.
//!
//! The WAL is *logical*: each record is one committed DML/DDL statement
//! (`CREATE TABLE`, `DROP TABLE`, `ALTER TABLE … RENAME`, `INSERT`,
//! `REPAIR`), and recovery replays the statements against the last
//! snapshot. Every engine operation is deterministic, so replay
//! reproduces the exact pre-crash decomposition — tuple identifiers,
//! component layout and probabilities included (property-tested in
//! `tests/oracle_properties.rs`).
//!
//! Queries (`SELECT`, `EXPLAIN`, `SHOW TABLES`) never mutate the
//! database and are not loggable; `CHECKPOINT` compacts the log rather
//! than extending it. [`encode_statement`] rejects all of these.
//!
//! The byte format builds on `maybms_storage::bytes` (little-endian,
//! length-prefixed, exact float bit patterns) with a leading format
//! version so old logs fail loudly instead of misparsing.

use maybms_relational::{BinOp, CmpOp, Error, Expr, Result};
use maybms_storage::{Reader, Writer};

use crate::ast::{InsertValue, RepairStmt, Statement};

/// Version of the WAL statement encoding.
pub const WIRE_VERSION: u8 = 1;

const TAG_CREATE: u8 = 1;
const TAG_DROP: u8 = 2;
const TAG_RENAME: u8 = 3;
const TAG_INSERT: u8 = 4;
const TAG_REPAIR_KEY: u8 = 5;
const TAG_REPAIR_FD: u8 = 6;
const TAG_REPAIR_CHECK: u8 = 7;
const TAG_DELETE: u8 = 8;
const TAG_UPDATE: u8 = 9;
/// A commit group: one WAL record holding a whole transaction's
/// statements. Because the WAL frames each record with its own CRC, the
/// group commits (and recovers) atomically — a torn tail drops the whole
/// transaction, never a prefix of it.
const TAG_TXN: u8 = 10;

/// Whether executing `stmt` mutates the database (and must be logged).
/// Transaction control (`BEGIN`/`COMMIT`/`ROLLBACK`) is not itself logged:
/// the log records a committed transaction as one [`encode_commit_group`]
/// record, and an uncommitted one not at all.
pub fn is_mutation(stmt: &Statement) -> bool {
    matches!(
        stmt,
        Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::RenameTable { .. }
            | Statement::Insert { .. }
            | Statement::Delete { .. }
            | Statement::Update { .. }
            | Statement::Repair(_)
    )
}

fn put_names(w: &mut Writer, names: &[String]) {
    w.put_u32(names.len() as u32);
    for n in names {
        w.put_str(n);
    }
}

fn get_names(r: &mut Reader) -> Result<Vec<String>> {
    let n = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push(r.get_str()?);
    }
    Ok(out)
}

fn put_expr(w: &mut Writer, e: &Expr) {
    match e {
        Expr::Col(n) => {
            w.put_u8(0);
            w.put_str(n);
        }
        Expr::Lit(v) => {
            w.put_u8(1);
            w.put_value(v);
        }
        Expr::Cmp(op, a, b) => {
            w.put_u8(2);
            w.put_u8(*op as u8);
            put_expr(w, a);
            put_expr(w, b);
        }
        Expr::Bin(op, a, b) => {
            w.put_u8(3);
            w.put_u8(*op as u8);
            put_expr(w, a);
            put_expr(w, b);
        }
        Expr::And(a, b) => {
            w.put_u8(4);
            put_expr(w, a);
            put_expr(w, b);
        }
        Expr::Or(a, b) => {
            w.put_u8(5);
            put_expr(w, a);
            put_expr(w, b);
        }
        Expr::Not(a) => {
            w.put_u8(6);
            put_expr(w, a);
        }
        Expr::IsNull(a) => {
            w.put_u8(7);
            put_expr(w, a);
        }
        Expr::InList(a, vs) => {
            w.put_u8(8);
            put_expr(w, a);
            w.put_u32(vs.len() as u32);
            for v in vs {
                w.put_value(v);
            }
        }
        Expr::Param(i) => {
            // never reaches the WAL (sessions bind parameters before
            // executing, and only executed statements are logged), but the
            // encoding is total so prepared templates round-trip too
            w.put_u8(9);
            w.put_u32(*i);
        }
    }
}

fn get_cmp_op(r: &mut Reader) -> Result<CmpOp> {
    Ok(match r.get_u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(Error::Storage(format!("unknown comparison tag {t}"))),
    })
}

fn get_bin_op(r: &mut Reader) -> Result<BinOp> {
    Ok(match r.get_u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        t => return Err(Error::Storage(format!("unknown arithmetic tag {t}"))),
    })
}

fn get_expr(r: &mut Reader) -> Result<Expr> {
    Ok(match r.get_u8()? {
        0 => Expr::Col(r.get_str()?),
        1 => Expr::Lit(r.get_value()?),
        2 => {
            let op = get_cmp_op(r)?;
            Expr::Cmp(op, Box::new(get_expr(r)?), Box::new(get_expr(r)?))
        }
        3 => {
            let op = get_bin_op(r)?;
            Expr::Bin(op, Box::new(get_expr(r)?), Box::new(get_expr(r)?))
        }
        4 => Expr::And(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        5 => Expr::Or(Box::new(get_expr(r)?), Box::new(get_expr(r)?)),
        6 => Expr::Not(Box::new(get_expr(r)?)),
        7 => Expr::IsNull(Box::new(get_expr(r)?)),
        8 => {
            let a = Box::new(get_expr(r)?);
            let n = r.get_u32()? as usize;
            let mut vs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                vs.push(r.get_value()?);
            }
            Expr::InList(a, vs)
        }
        9 => Expr::Param(r.get_u32()?),
        t => return Err(Error::Storage(format!("unknown expression tag {t}"))),
    })
}

fn put_insert_value(w: &mut Writer, v: &InsertValue) {
    match v {
        InsertValue::Certain(v) => {
            w.put_u8(0);
            w.put_value(v);
        }
        InsertValue::Uniform(vs) => {
            w.put_u8(1);
            w.put_u32(vs.len() as u32);
            for v in vs {
                w.put_value(v);
            }
        }
        InsertValue::Weighted(ws) => {
            w.put_u8(2);
            w.put_u32(ws.len() as u32);
            for (v, p) in ws {
                w.put_value(v);
                w.put_f64(*p);
            }
        }
        InsertValue::Param(i) => {
            w.put_u8(3);
            w.put_u32(*i);
        }
    }
}

fn get_insert_value(r: &mut Reader) -> Result<InsertValue> {
    Ok(match r.get_u8()? {
        0 => InsertValue::Certain(r.get_value()?),
        1 => {
            let n = r.get_u32()? as usize;
            let mut vs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                vs.push(r.get_value()?);
            }
            InsertValue::Uniform(vs)
        }
        2 => {
            let n = r.get_u32()? as usize;
            let mut ws = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let v = r.get_value()?;
                let p = r.get_f64()?;
                ws.push((v, p));
            }
            InsertValue::Weighted(ws)
        }
        3 => InsertValue::Param(r.get_u32()?),
        t => return Err(Error::Storage(format!("unknown insert value tag {t}"))),
    })
}

/// Encodes a mutating statement as one WAL record payload. Non-mutating
/// statements are rejected — they have no business in the log.
pub fn encode_statement(stmt: &Statement) -> Result<Vec<u8>> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    match stmt {
        Statement::CreateTable { name, columns } => {
            w.put_u8(TAG_CREATE);
            w.put_str(name);
            w.put_u32(columns.len() as u32);
            for (n, ty) in columns {
                w.put_str(n);
                w.put_column_type(*ty);
            }
        }
        Statement::DropTable { name } => {
            w.put_u8(TAG_DROP);
            w.put_str(name);
        }
        Statement::RenameTable { from, to } => {
            w.put_u8(TAG_RENAME);
            w.put_str(from);
            w.put_str(to);
        }
        Statement::Insert { table, rows } => {
            w.put_u8(TAG_INSERT);
            w.put_str(table);
            w.put_u32(rows.len() as u32);
            for row in rows {
                w.put_u32(row.len() as u32);
                for v in row {
                    put_insert_value(&mut w, v);
                }
            }
        }
        Statement::Repair(RepairStmt::Key { table, columns }) => {
            w.put_u8(TAG_REPAIR_KEY);
            w.put_str(table);
            put_names(&mut w, columns);
        }
        Statement::Repair(RepairStmt::Fd { table, lhs, rhs }) => {
            w.put_u8(TAG_REPAIR_FD);
            w.put_str(table);
            put_names(&mut w, lhs);
            put_names(&mut w, rhs);
        }
        Statement::Repair(RepairStmt::Check { table, pred }) => {
            w.put_u8(TAG_REPAIR_CHECK);
            w.put_str(table);
            put_expr(&mut w, pred);
        }
        Statement::Delete { table, pred } => {
            w.put_u8(TAG_DELETE);
            w.put_str(table);
            match pred {
                None => w.put_u8(0),
                Some(p) => {
                    w.put_u8(1);
                    put_expr(&mut w, p);
                }
            }
        }
        Statement::Update { table, set, pred } => {
            w.put_u8(TAG_UPDATE);
            w.put_str(table);
            w.put_u32(set.len() as u32);
            for (col, v) in set {
                w.put_str(col);
                put_insert_value(&mut w, v);
            }
            match pred {
                None => w.put_u8(0),
                Some(p) => {
                    w.put_u8(1);
                    put_expr(&mut w, p);
                }
            }
        }
        other => {
            return Err(Error::Storage(format!(
                "statement is not loggable (not a mutation): {other:?}"
            )))
        }
    }
    Ok(w.into_inner())
}

/// Decodes one WAL record payload back into a statement.
pub fn decode_statement(bytes: &[u8]) -> Result<Statement> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(Error::Storage(format!(
            "unsupported WAL statement version {version} (this build reads {WIRE_VERSION})"
        )));
    }
    let stmt = match r.get_u8()? {
        TAG_CREATE => {
            let name = r.get_str()?;
            let n = r.get_u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let cname = r.get_str()?;
                let ty = r.get_column_type()?;
                columns.push((cname, ty));
            }
            Statement::CreateTable { name, columns }
        }
        TAG_DROP => Statement::DropTable { name: r.get_str()? },
        TAG_RENAME => Statement::RenameTable { from: r.get_str()?, to: r.get_str()? },
        TAG_INSERT => {
            let table = r.get_str()?;
            let nrows = r.get_u32()? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1 << 16));
            for _ in 0..nrows {
                let ncells = r.get_u32()? as usize;
                let mut row = Vec::with_capacity(ncells.min(1 << 16));
                for _ in 0..ncells {
                    row.push(get_insert_value(&mut r)?);
                }
                rows.push(row);
            }
            Statement::Insert { table, rows }
        }
        TAG_REPAIR_KEY => Statement::Repair(RepairStmt::Key {
            table: r.get_str()?,
            columns: get_names(&mut r)?,
        }),
        TAG_REPAIR_FD => {
            let table = r.get_str()?;
            let lhs = get_names(&mut r)?;
            let rhs = get_names(&mut r)?;
            Statement::Repair(RepairStmt::Fd { table, lhs, rhs })
        }
        TAG_REPAIR_CHECK => {
            let table = r.get_str()?;
            let pred = get_expr(&mut r)?;
            Statement::Repair(RepairStmt::Check { table, pred })
        }
        TAG_DELETE => {
            let table = r.get_str()?;
            let pred = get_optional_expr(&mut r)?;
            Statement::Delete { table, pred }
        }
        TAG_UPDATE => {
            let table = r.get_str()?;
            let n = r.get_u32()? as usize;
            let mut set = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let col = r.get_str()?;
                let v = get_insert_value(&mut r)?;
                set.push((col, v));
            }
            let pred = get_optional_expr(&mut r)?;
            Statement::Update { table, set, pred }
        }
        t => return Err(Error::Storage(format!("unknown statement tag {t}"))),
    };
    r.expect_end()?;
    Ok(stmt)
}

fn get_optional_expr(r: &mut Reader) -> Result<Option<Expr>> {
    Ok(match r.get_u8()? {
        0 => None,
        1 => Some(get_expr(r)?),
        t => return Err(Error::Storage(format!("unknown optional-expression tag {t}"))),
    })
}

/// Frames a committed transaction's already-encoded statement payloads as
/// ONE WAL record: the whole group shares a single CRC frame and a single
/// fsync, and recovery replays it all or not at all.
pub fn encode_commit_group(records: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(WIRE_VERSION);
    w.put_u8(TAG_TXN);
    w.put_u32(records.len() as u32);
    for rec in records {
        w.put_u32(rec.len() as u32);
        w.put_bytes(rec);
    }
    w.into_inner()
}

/// Encodes `stmts` as one commit-group WAL record — what `COMMIT` and
/// the group committer log for a transaction's surviving mutations.
pub fn encode_group(stmts: &[Statement]) -> Result<Vec<u8>> {
    let records = stmts.iter().map(encode_statement).collect::<Result<Vec<_>>>()?;
    Ok(encode_commit_group(&records))
}

/// Decodes one WAL record payload into the statements it commits: a
/// single statement, or every statement of a commit group (in execution
/// order). This is the recovery entry point — [`decode_statement`] is the
/// single-statement special case.
pub fn decode_wal_record(bytes: &[u8]) -> Result<Vec<Statement>> {
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(Error::Storage(format!(
            "unsupported WAL statement version {version} (this build reads {WIRE_VERSION})"
        )));
    }
    if r.get_u8()? != TAG_TXN {
        return Ok(vec![decode_statement(bytes)?]);
    }
    let n = r.get_u32()? as usize;
    let mut stmts = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let len = r.get_len()?;
        let payload = r.get_bytes(len)?;
        stmts.push(decode_statement(payload)?);
    }
    r.expect_end()?;
    Ok(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(sql: &str) {
        let stmt = parse(sql).unwrap();
        assert!(is_mutation(&stmt), "{sql} should be a mutation");
        let bytes = encode_statement(&stmt).unwrap();
        let back = decode_statement(&bytes).unwrap();
        assert_eq!(stmt, back, "wire round trip of {sql}");
    }

    #[test]
    fn mutations_round_trip() {
        round_trip("CREATE TABLE r (a INT, b TEXT, c FLOAT, d BOOL)");
        round_trip("DROP TABLE r");
        round_trip("ALTER TABLE a RENAME TO b");
        round_trip("INSERT INTO r VALUES (1, 'x', 1.5, TRUE)");
        round_trip("INSERT INTO r VALUES ({1, 2}, {'a': 0.4, 'b': 0.6}, NULL, FALSE), (-7, 'y', -0.25, TRUE)");
        round_trip("REPAIR KEY person(ssn, name)");
        round_trip("REPAIR FD person: zip -> city, state");
        round_trip("REPAIR CHECK person: age < 150 AND age >= 0 OR name IN ('x','y') AND age IS NOT NULL");
        round_trip("REPAIR CHECK person: NOT (age * 2 + 1 % 3 / 4 - 5 = 0)");
        round_trip("DELETE FROM r");
        round_trip("DELETE FROM r WHERE a = 1 AND b IN ('x', 'y')");
        round_trip("UPDATE r SET a = 5, b = 'x' WHERE a < 3 OR b IS NULL");
        round_trip("UPDATE r SET a = -1");
    }

    #[test]
    fn prepared_templates_round_trip() {
        // parameterized statements never reach the WAL, but the encoding
        // is total: templates survive the wire bit-for-bit
        round_trip("INSERT INTO r VALUES (?, 2), (3, ?)");
        round_trip("UPDATE r SET a = ? WHERE b = ?");
        round_trip("DELETE FROM r WHERE a = ? AND b > ?");
    }

    #[test]
    fn transaction_control_is_not_loggable() {
        for sql in ["BEGIN", "COMMIT", "ROLLBACK", "SAVEPOINT sp", "ROLLBACK TO sp"] {
            let stmt = parse(sql).unwrap();
            assert!(!is_mutation(&stmt), "{sql}");
            assert!(encode_statement(&stmt).is_err(), "{sql}");
        }
    }

    #[test]
    fn commit_groups_frame_whole_transactions() {
        let stmts: Vec<Statement> = [
            "CREATE TABLE t (x INT)",
            "INSERT INTO t VALUES (1), ({2: 0.5, 3: 0.5})",
            "DELETE FROM t WHERE x = 1",
            "UPDATE t SET x = 9 WHERE x = 2",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let records: Vec<Vec<u8>> =
            stmts.iter().map(|s| encode_statement(s).unwrap()).collect();
        let group = encode_commit_group(&records);
        assert_eq!(decode_wal_record(&group).unwrap(), stmts);
        // an empty transaction frames to an empty group
        assert_eq!(decode_wal_record(&encode_commit_group(&[])).unwrap(), Vec::<Statement>::new());
        // single-statement records decode through the same entry point
        assert_eq!(decode_wal_record(&records[0]).unwrap(), vec![stmts[0].clone()]);
        // truncating anywhere inside the group is an error, never a prefix
        for cut in 0..group.len() {
            assert!(decode_wal_record(&group[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = group.clone();
        trailing.push(0);
        assert!(decode_wal_record(&trailing).is_err());
    }

    #[test]
    fn queries_are_not_loggable() {
        for sql in ["SELECT a FROM r", "SHOW TABLES", "EXPLAIN SELECT a FROM r", "CHECKPOINT"] {
            let stmt = parse(sql).unwrap();
            assert!(!is_mutation(&stmt), "{sql}");
            assert!(encode_statement(&stmt).is_err(), "{sql}");
        }
    }

    #[test]
    fn corrupt_records_error() {
        let stmt = parse("INSERT INTO r VALUES (1)").unwrap();
        let bytes = encode_statement(&stmt).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_statement(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(decode_statement(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(7);
        assert!(decode_statement(&trailing).is_err());
    }

    #[test]
    fn weights_survive_bit_exactly() {
        let stmt = parse("INSERT INTO r VALUES ({1: 0.1, 2: 0.9})").unwrap();
        let back = decode_statement(&encode_statement(&stmt).unwrap()).unwrap();
        let Statement::Insert { rows, .. } = back else { panic!() };
        let InsertValue::Weighted(ws) = &rows[0][0] else { panic!() };
        assert_eq!(ws[0].1.to_bits(), 0.1f64.to_bits());
        assert_eq!(ws[1].1.to_bits(), 0.9f64.to_bits());
    }
}
