//! Prepared statements: parse once, bind `?` placeholders many times.

use maybms_relational::{Error, Result, Value};

use super::{QueryResult, Session, SessionError, SessionResult};
use crate::ast::{InsertValue, RepairStmt, SelectStmt, Statement};
use crate::parser::parse_counting_params;

/// A statement parsed (and parameter-counted) once, to be bound and
/// executed many times — see [`Session::prepare`].
#[derive(Debug, Clone)]
pub struct Prepared {
    pub(super) stmt: Statement,
    params: u32,
}

impl Prepared {
    /// How many `?` placeholders the statement holds.
    pub fn param_count(&self) -> usize {
        self.params as usize
    }

    /// The underlying statement template (placeholders included).
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// Substitutes the placeholders with `params` (by position), returning
    /// the closed statement. The value count must match exactly.
    pub fn bind(&self, params: &[Value]) -> SessionResult<Statement> {
        if params.len() != self.params as usize {
            return Err(SessionError::exec(Error::InvalidExpr(format!(
                "prepared statement takes {} parameter(s), {} bound",
                self.params,
                params.len()
            ))));
        }
        bind_statement(&self.stmt, params).map_err(SessionError::exec)
    }
}

fn bind_insert_value(v: &InsertValue, params: &[Value]) -> Result<InsertValue> {
    Ok(match v {
        InsertValue::Param(i) => {
            let v = params.get(*i as usize).ok_or_else(|| {
                Error::InvalidExpr(format!("parameter ?{} has no bound value", i + 1))
            })?;
            InsertValue::Certain(v.clone())
        }
        other => other.clone(),
    })
}

fn bind_select(sel: &SelectStmt, params: &[Value]) -> Result<SelectStmt> {
    let mut out = sel.clone();
    if let Some(p) = &sel.where_clause {
        out.where_clause = Some(p.with_params(params)?);
    }
    if let Some((op, rhs)) = &sel.set_op {
        out.set_op = Some((*op, Box::new(bind_select(rhs, params)?)));
    }
    Ok(out)
}

fn bind_statement(stmt: &Statement, params: &[Value]) -> Result<Statement> {
    Ok(match stmt {
        Statement::Insert { table, rows } => Statement::Insert {
            table: table.clone(),
            rows: rows
                .iter()
                .map(|row| row.iter().map(|v| bind_insert_value(v, params)).collect())
                .collect::<Result<_>>()?,
        },
        Statement::Delete { table, pred } => Statement::Delete {
            table: table.clone(),
            pred: pred.as_ref().map(|p| p.with_params(params)).transpose()?,
        },
        Statement::Update { table, set, pred } => Statement::Update {
            table: table.clone(),
            set: set
                .iter()
                .map(|(c, v)| Ok((c.clone(), bind_insert_value(v, params)?)))
                .collect::<Result<_>>()?,
            pred: pred.as_ref().map(|p| p.with_params(params)).transpose()?,
        },
        Statement::Select(sel) => Statement::Select(bind_select(sel, params)?),
        Statement::Repair(RepairStmt::Check { table, pred }) => {
            Statement::Repair(RepairStmt::Check {
                table: table.clone(),
                pred: pred.with_params(params)?,
            })
        }
        Statement::Explain { stmt, analyze } => Statement::Explain {
            stmt: Box::new(bind_statement(stmt, params)?),
            analyze: *analyze,
        },
        other => other.clone(),
    })
}

impl Session {
    /// Parses a statement with `?` placeholders once, for repeated
    /// [`Session::execute_prepared`] calls — the loaders' fast path
    /// (parse/lower once, bind many).
    ///
    /// ```
    /// use maybms_sql::Session;
    /// use maybms_relational::Value;
    ///
    /// let mut s = Session::new();
    /// s.execute("CREATE TABLE t (x INT, tag TEXT)").unwrap();
    /// let ins = s.prepare("INSERT INTO t VALUES (?, ?)").unwrap();
    /// assert_eq!(ins.param_count(), 2);
    /// for i in 0..3i64 {
    ///     s.execute_prepared(&ins, &[Value::Int(i), Value::str("row")]).unwrap();
    /// }
    /// let q = s.prepare("SELECT POSSIBLE x FROM t WHERE x >= ?").unwrap();
    /// assert_eq!(s.execute_prepared(&q, &[Value::Int(1)]).unwrap().rows().len(), 2);
    /// ```
    pub fn prepare(&self, sql: &str) -> SessionResult<Prepared> {
        let (stmt, params) = parse_counting_params(sql)
            .map_err(|source| SessionError::Parse { sql: sql.to_string(), source })?;
        Ok(Prepared { stmt, params })
    }

    pub(super) fn prepare_unparameterized(&self, sql: &str) -> SessionResult<Prepared> {
        let p = self.prepare(sql)?;
        if p.params > 0 {
            return Err(SessionError::exec(Error::InvalidExpr(format!(
                "statement has {} unbound ? parameter(s); use prepare + execute_prepared",
                p.params
            ))));
        }
        Ok(p)
    }

    /// Binds `params` into a prepared statement and executes it.
    pub fn execute_prepared(
        &mut self,
        prepared: &Prepared,
        params: &[Value],
    ) -> SessionResult<QueryResult> {
        let stmt = prepared.bind(params)?;
        self.run(&stmt)
    }
}
