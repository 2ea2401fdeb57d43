//! `SELECT` execution: lower → optimize → compile → execute on the
//! worker pool, then the world-mode post-processing (`POSSIBLE` /
//! `CERTAIN` / `PROB()` / `EXPECTED`, `HAVING PROB()`, `ORDER BY`,
//! `LIMIT`).

use std::time::Instant;

use maybms_core::exec::{compile, Executor};
use maybms_core::prob;
use maybms_relational::{ColumnType, Error, Relation, Schema, Tuple, Value};

use super::{QueryResult, Session, SessionError, SessionResult};
use crate::ast::{ExpectedAgg, SelectStmt, WorldMode};
use crate::optimizer::optimize_with_stats;
use crate::plan::lower_select;

impl Session {
    pub(super) fn run_select(&mut self, sel: &SelectStmt) -> SessionResult<QueryResult> {
        if sel.prob_threshold.is_some() && (!sel.prob || sel.items.is_empty()) {
            return Err(SessionError::plan(Error::InvalidExpr(
                "HAVING PROB() requires PROB() and answer columns in the select list".into(),
            )));
        }
        let mut result = self.run_select_inner(sel)?;
        // HAVING PROB() filters on the confidence column (always last).
        if let Some((op, threshold)) = sel.prob_threshold {
            if let QueryResult::Table(t) = result {
                let last = t.schema().len() - 1;
                let rows: Vec<_> = t
                    .rows()
                    .iter()
                    .filter(|r| {
                        op.apply(&r[last], &Value::Float(threshold)).unwrap_or(false)
                    })
                    .cloned()
                    .collect();
                result = QueryResult::Table(Relation::from_rows_unchecked(
                    t.schema().clone(),
                    rows,
                ));
            }
        }
        // ORDER BY / LIMIT post-process tabular results.
        if sel.order_by.is_empty() && sel.limit.is_none() {
            return Ok(result);
        }
        match result {
            QueryResult::Table(t) => {
                let mut t = if sel.order_by.is_empty() {
                    t
                } else {
                    let keys: Vec<(&str, bool)> = sel
                        .order_by
                        .iter()
                        .map(|(c, asc)| (c.as_str(), *asc))
                        .collect();
                    maybms_relational::ops::sort_by(&t, &keys).map_err(SessionError::exec)?
                };
                if let Some(n) = sel.limit {
                    let rows: Vec<_> = t.take_rows().into_iter().take(n).collect();
                    t = Relation::from_rows_unchecked(t.schema().clone(), rows);
                }
                Ok(QueryResult::Table(t))
            }
            QueryResult::WorldSet(_) | QueryResult::Text(_) => {
                Err(SessionError::plan(Error::InvalidExpr(
                    "ORDER BY / LIMIT require a tabular result \
                     (POSSIBLE, CERTAIN, PROB() or EXPECTED)"
                        .into(),
                )))
            }
        }
    }

    fn run_select_inner(&mut self, sel: &SelectStmt) -> SessionResult<QueryResult> {
        let begin = Instant::now();
        let raw = lower_select(sel).map_err(SessionError::plan)?;
        let plan = if self.optimize_plans {
            optimize_with_stats(&raw, &self.wsd, &mut self.stats)
                .map_err(SessionError::plan)?
        } else {
            raw
        };
        if let Some(t) = self.trace.as_mut() {
            t.push("optimize", begin);
        }
        // check the tree against the catalog and execute it on the
        // session's worker pool
        let begin = Instant::now();
        let plan = compile(&plan, &self.wsd).map_err(SessionError::plan)?;
        if let Some(t) = self.trace.as_mut() {
            t.push("compile", begin);
        }
        let begin = Instant::now();
        let answer =
            Executor::new(&self.pool).run(&plan, &self.wsd).map_err(SessionError::exec)?;
        if let Some(t) = self.trace.as_mut() {
            t.push("execute", begin);
        }
        let schema = answer.relation("result").map_err(SessionError::exec)?.schema.clone();

        if let Some(agg) = &sel.expected {
            // EXPECTED COUNT() / EXPECTED SUM(col): one scalar row.
            let (name, v) = match agg {
                ExpectedAgg::Count => (
                    "expected_count",
                    prob::expected_count_in(&answer, "result", &self.pool)
                        .map_err(SessionError::exec)?,
                ),
                ExpectedAgg::Sum(col) => (
                    "expected_sum",
                    prob::expected_sum_in(&answer, "result", col, &self.pool)
                        .map_err(SessionError::exec)?,
                ),
            };
            let s = Schema::new(vec![(name, ColumnType::Float)]);
            let mut r = Relation::empty(s);
            r.push_unchecked(Tuple::new(vec![Value::Float(v)]));
            return Ok(QueryResult::Table(r));
        }

        match (sel.mode, sel.prob) {
            (WorldMode::AllWorlds, false) => Ok(QueryResult::WorldSet(answer)),
            (WorldMode::AllWorlds, true) | (WorldMode::Possible, true) => {
                if sel.items.is_empty() {
                    // SELECT PROB() FROM ... : probability of non-emptiness
                    let p = prob::nonempty_confidence_in(&answer, "result", &self.pool)
                        .map_err(SessionError::exec)?;
                    let s = Schema::new(vec![("prob", ColumnType::Float)]);
                    let mut r = Relation::empty(s);
                    r.push_unchecked(Tuple::new(vec![Value::Float(p)]));
                    Ok(QueryResult::Table(r))
                } else {
                    // answer tuples with their confidences
                    let conf = prob::tuple_confidence_in(&answer, "result", &self.pool)
                        .map_err(SessionError::exec)?;
                    let with_p = schema.concat(&Schema::new(vec![("prob", ColumnType::Float)]));
                    let mut r = Relation::empty(with_p);
                    for (t, p) in conf {
                        let mut vals = t.into_values();
                        vals.push(Value::Float(p));
                        r.push_unchecked(Tuple::new(vals));
                    }
                    Ok(QueryResult::Table(r))
                }
            }
            (WorldMode::Possible, false) => {
                let tuples = prob::possible_tuples_in(&answer, "result", &self.pool)
                    .map_err(SessionError::exec)?;
                Ok(QueryResult::Table(Relation::from_rows_unchecked(schema, tuples)))
            }
            (WorldMode::Certain, _) => {
                let tuples = prob::certain_tuples_in(&answer, "result", &self.pool)
                    .map_err(SessionError::exec)?;
                Ok(QueryResult::Table(Relation::from_rows_unchecked(schema, tuples)))
            }
        }
    }
}
