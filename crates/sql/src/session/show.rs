//! Introspection statements: `EXPLAIN [ANALYZE]` and the `SHOW …`
//! family (tables, metrics, slow queries, replication status).

use std::time::Instant;

use maybms_core::exec::{compile, explain, Executor};
use maybms_core::stats::estimate_query;
use maybms_obs::trace::fmt_duration;
use maybms_obs::MetricValue;
use maybms_relational::{ColumnType, Relation, Schema, Tuple, Value};

use super::{QueryResult, Session, SessionError, SessionResult};
use crate::ast::SelectStmt;
use crate::optimizer::optimize_with_stats;
use crate::plan::lower_select;
use crate::replication::STALE_AFTER;

impl Session {
    /// `EXPLAIN [ANALYZE] <select>`: the logical, optimized and physical
    /// plans with per-node estimates (and, under `ANALYZE`, actuals).
    pub(super) fn explain_select(
        &mut self,
        sel: &SelectStmt,
        analyze: bool,
    ) -> SessionResult<QueryResult> {
        let raw = lower_select(sel).map_err(SessionError::plan)?;
        let opt = optimize_with_stats(&raw, &self.wsd, &mut self.stats)
            .map_err(SessionError::plan)?;
        let chosen = if self.optimize_plans { &opt } else { &raw };
        let compile_began = Instant::now();
        let phys = compile(chosen, &self.wsd).map_err(SessionError::plan)?;
        let compile_elapsed = compile_began.elapsed();
        // ANALYZE: execute and sample each node's actual output
        // template count and wall-clock time (inclusive of its
        // children), in the same pre-order the renderer walks
        // below.
        let actuals = if analyze {
            let began = Instant::now();
            let (_, samples) = Executor::new(&self.pool)
                .run_traced(&phys, &self.wsd)
                .map_err(SessionError::exec)?;
            Some((samples, began.elapsed()))
        } else {
            None
        };
        let wsd = &self.wsd;
        let stats = &mut self.stats;
        let mut idx = 0usize;
        let physical = explain(&phys, wsd, |node| {
            let mut note = String::new();
            if let Ok(e) = estimate_query(node, wsd, stats) {
                note = format!("  (est rows={:.0} cost={:.0}", e.rows, e.cost);
                if let Some(n) = actuals.as_ref().and_then(|(s, _)| s.get(idx)) {
                    note.push_str(&format!(
                        " actual rows={} time={}",
                        n.rows,
                        fmt_duration(n.elapsed)
                    ));
                }
                note.push(')');
            }
            idx += 1;
            note
        });
        let mut out = format!(
            "-- logical plan\n{}-- optimized plan\n{}-- physical plan (workers={})\n{}",
            explain(&raw, wsd, |_| String::new()),
            explain(&opt, wsd, |_| String::new()),
            self.pool.workers(),
            physical
        );
        if let Some((_, exec_elapsed)) = &actuals {
            out.push_str(&format!(
                "-- timing\ncompile {} · execute {}\n",
                fmt_duration(compile_elapsed),
                fmt_duration(*exec_elapsed)
            ));
        }
        Ok(QueryResult::Text(out))
    }

    /// `SHOW METRICS [LIKE pattern]`: the global registry as rows.
    pub(super) fn show_metrics(&self, like: Option<&str>) -> QueryResult {
        let schema = Schema::new(vec![
            ("name", ColumnType::Str),
            ("kind", ColumnType::Str),
            ("value", ColumnType::Str),
        ]);
        let mut r = Relation::empty(schema);
        for (name, v) in maybms_obs::global().snapshot() {
            if like.is_some_and(|p| !like_match(p, &name)) {
                continue;
            }
            let (kind, value) = match v {
                MetricValue::Counter(n) => ("counter", n.to_string()),
                MetricValue::Gauge(n) => ("gauge", n.to_string()),
                MetricValue::Histogram(_, _, sum, count) => {
                    ("histogram", format!("count={count} sum={sum}"))
                }
            };
            r.push_unchecked(Tuple::new(vec![
                Value::str(name),
                Value::str(kind),
                Value::str(value),
            ]));
        }
        QueryResult::Table(r)
    }

    /// `SHOW SLOW QUERIES`: the session's slow-query ring as rows.
    pub(super) fn show_slow_queries(&self) -> QueryResult {
        let schema = Schema::new(vec![
            ("sql", ColumnType::Str),
            ("total_ms", ColumnType::Float),
            ("phases", ColumnType::Str),
        ]);
        let mut r = Relation::empty(schema);
        for q in self.slow_log.entries() {
            r.push_unchecked(Tuple::new(vec![
                Value::str(q.sql),
                Value::Float(q.total.as_secs_f64() * 1e3),
                Value::str(q.phases),
            ]));
        }
        QueryResult::Table(r)
    }

    /// `SHOW REPLICATION STATUS`: one row naming this session's role and
    /// how far it trails its primary.
    pub(super) fn show_replication_status(&self) -> QueryResult {
        let schema = Schema::new(vec![
            ("role", ColumnType::Str),
            ("applied_lsn", ColumnType::Int),
            ("primary_lsn", ColumnType::Int),
            ("lag_lsns", ColumnType::Int),
            ("seconds_since_contact", ColumnType::Float),
            ("stale", ColumnType::Bool),
        ]);
        let row = match &self.repl_status {
            Some(status) => {
                let applied = status.applied_lsn();
                let primary = status.primary_lsn();
                let since = status.since_last_contact();
                vec![
                    Value::str("replica"),
                    Value::Int(applied as i64),
                    Value::Int(primary as i64),
                    Value::Int(primary.saturating_sub(applied) as i64),
                    Value::Float(since.as_secs_f64()),
                    Value::Bool(since > STALE_AFTER),
                ]
            }
            None => {
                // Not a follower: a durable session is (or can be)
                // a primary, a detached one is standalone. Either
                // way it *is* its own source of truth — zero lag.
                let lsn = self.last_lsn().unwrap_or(0) as i64;
                let role = if self.storage.is_some() { "primary" } else { "standalone" };
                vec![
                    Value::str(role),
                    Value::Int(lsn),
                    Value::Int(lsn),
                    Value::Int(0),
                    Value::Float(0.0),
                    Value::Bool(false),
                ]
            }
        };
        let mut r = Relation::empty(schema);
        r.push_unchecked(Tuple::new(row));
        QueryResult::Table(r)
    }
}

/// SQL `LIKE` matching with `%` (any run) and `_` (any one character)
/// wildcards, case-sensitive, over `SHOW METRICS` names. Iterative
/// two-pointer matching with backtracking to the last `%` — linear in
/// practice, no recursion.
pub(super) fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern pos after %, text pos it matched)
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // extend the last %'s match by one character and retry
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}
