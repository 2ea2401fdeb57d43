//! The executor: the one plan walker. It evaluates a compiled [`Query`]
//! node by node against a working copy of the decomposition, each node
//! calling its [`crate::algebra`] operator and materializing its answer
//! as an intermediate relation, with the worker pool threaded through
//! to the one parallel pass a plan has (hash-join probing).
//!
//! The working copy is a shared clone ([`Wsd`]'s "Sharing"): taking it
//! copies one pointer per relation and per chunk of component slots,
//! operators copy only the chunks, components and reverse-index rows
//! they write, and [`algebra::extract`] builds the answer from the root
//! relation's own open fields and the components they reach — so a
//! statement costs what it touches, not the size of the database. A
//! selection decides a tuple with no open read on one row buffer it
//! keeps across tuples.

use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use maybms_obs::Counter;
use maybms_relational::{Result, Value};

use crate::algebra::common::{emit_passthrough, snapshot};
use crate::algebra::{
    self, difference_op, join_op_in, product_op, project_op, qualify_op, rename_op, select_op,
    union_op, Query,
};
use crate::wsd::{Existence, TemplateCell, Wsd};

use super::pool::WorkerPool;

/// One plan node's execution sample from [`Executor::run_traced`]: how
/// many output template tuples it produced and how long its evaluation
/// took (wall clock, **inclusive** of its children — the natural reading
/// of the pre-order walk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTrace {
    /// Output template tuples the node produced.
    pub rows: usize,
    /// Wall-clock evaluation time, children included.
    pub elapsed: Duration,
}

/// Operator-kind labels, in the order [`op_kind_index`] assigns.
const OP_KINDS: [&str; 10] = [
    "seq_scan",
    "filter",
    "project",
    "join",
    "cross_product",
    "union",
    "difference",
    "dedup",
    "rename",
    "qualify",
];

fn op_kind_index(q: &Query) -> usize {
    match q {
        Query::Table(_) => 0,
        Query::Select(..) => 1,
        Query::Project(..) => 2,
        Query::Join(..) => 3,
        Query::Product(..) => 4,
        Query::Union(..) => 5,
        Query::Difference(..) => 6,
        Query::Distinct(_) => 7,
        Query::Rename(..) => 8,
        Query::Qualify(..) => 9,
    }
}

/// Per-operator-kind output-row counters (`exec.rows.<kind>`), resolved
/// once. Driven by the deterministic serial tail of every operator, so
/// their totals are identical at every worker count.
fn row_counters() -> &'static [Arc<Counter>; 10] {
    static C: OnceLock<[Arc<Counter>; 10]> = OnceLock::new();
    C.get_or_init(|| OP_KINDS.map(|k| maybms_obs::counter(&format!("exec.rows.{k}"))))
}

/// A name for a node's intermediate relation that no relation of `wsd`
/// carries yet.
fn fresh(wsd: &Wsd, counter: &mut usize) -> String {
    loop {
        let name = format!("__p{}", *counter);
        *counter += 1;
        if wsd.relation(&name).is_err() {
            return name;
        }
    }
}

/// Evaluates a query on a decomposition, producing a decomposition of the
/// answer world-set whose single relation is named `"result"`:
/// [`super::compile`] then a sequential [`Executor`] run — the path
/// production takes, minus the optimizer and the worker pool.
pub fn eval(q: &Query, base: &Wsd) -> Result<Wsd> {
    Executor::sequential().run(&super::compile(q, base)?, base)
}

/// Executes compiled plans; hash joins probe on `pool`.
pub struct Executor<'p> {
    pool: &'p WorkerPool,
}

impl<'p> Executor<'p> {
    pub fn new(pool: &'p WorkerPool) -> Executor<'p> {
        Executor { pool }
    }

    /// A sequential executor (the shared one-worker pool).
    pub fn sequential() -> Executor<'static> {
        Executor { pool: WorkerPool::sequential() }
    }

    /// Runs a plan [`super::compile`] returned on a decomposition,
    /// producing a decomposition of the answer world-set whose single
    /// relation is named `"result"`.
    pub fn run(&self, plan: &Query, base: &Wsd) -> Result<Wsd> {
        self.run_with(plan, base, &mut None)
    }

    /// [`Executor::run`] recording, per plan node, the number of output
    /// template tuples it produced and its wall-clock evaluation time.
    /// Samples are indexed in pre-order (node before children, left
    /// before right) — the order [`super::explain`] visits nodes, so
    /// `EXPLAIN ANALYZE` can zip them onto the rendered tree.
    pub fn run_traced(&self, plan: &Query, base: &Wsd) -> Result<(Wsd, Vec<NodeTrace>)> {
        let mut trace = Some(Vec::new());
        let result = self.run_with(plan, base, &mut trace)?;
        Ok((result, trace.unwrap_or_default()))
    }

    /// Evaluates the plan inside a shared clone of `base` (operators add
    /// their intermediate relations to it), then extracts the root's.
    fn run_with(
        &self,
        plan: &Query,
        base: &Wsd,
        trace: &mut Option<Vec<NodeTrace>>,
    ) -> Result<Wsd> {
        let mut wsd = base.clone();
        let mut counter = 0usize;
        let out = self.exec(plan, &mut wsd, &mut counter, trace)?;
        algebra::extract(wsd, &out, "result")
    }

    /// Evaluates one node into `wsd`, returning the name of the relation
    /// holding its answer. When `trace` is enabled, records the node's
    /// sample at its pre-order index; either way the node's output rows
    /// feed the `exec.rows.<kind>` counters (while recording is enabled).
    fn exec(
        &self,
        q: &Query,
        wsd: &mut Wsd,
        counter: &mut usize,
        trace: &mut Option<Vec<NodeTrace>>,
    ) -> Result<String> {
        // claim this node's pre-order slot before descending
        #[allow(clippy::disallowed_methods)]
        // maybms-lint: allow(determinism) -- wall clock feeds only EXPLAIN ANALYZE node timings, never the decomposition or answer bytes
        let began = if trace.is_some() { Some(Instant::now()) } else { None };
        let slot = trace.as_mut().map(|t| {
            t.push(NodeTrace::default());
            t.len() - 1
        });
        let out = self.exec_node(q, wsd, counter, trace)?;
        if trace.is_some() || maybms_obs::enabled() {
            let rows = wsd.relation(&out)?.tuples.len();
            row_counters()[op_kind_index(q)].add(rows as u64);
            if let (Some(t), Some(i), Some(b)) = (trace.as_mut(), slot, began) {
                t[i] = NodeTrace { rows, elapsed: b.elapsed() };
            }
        }
        Ok(out)
    }

    /// Evaluates the node's inputs, left before right, then its operator
    /// into a fresh relation; a scan is its base relation.
    fn exec_node(
        &self,
        q: &Query,
        wsd: &mut Wsd,
        counter: &mut usize,
        trace: &mut Option<Vec<NodeTrace>>,
    ) -> Result<String> {
        if let Query::Table(rel) = q {
            wsd.relation(rel)?;
            return Ok(rel.clone());
        }
        let mut ins = Vec::with_capacity(2);
        for input in q.inputs() {
            ins.push(self.exec(input, wsd, counter, trace)?);
        }
        let [l, r] = [ins.first(), ins.get(1)].map(|s| s.map_or("", String::as_str));
        let out = fresh(wsd, counter);
        match q {
            Query::Table(_) => {} // returned above
            Query::Select(_, pred) => select_op(wsd, l, pred, &out)?,
            Query::Project(_, cols) => {
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                project_op(wsd, l, &names, &out)?;
            }
            Query::Join(_, _, pred) => join_op_in(wsd, l, r, pred, &out, self.pool)?,
            Query::Product(..) => product_op(wsd, l, r, &out)?,
            Query::Union(..) => union_op(wsd, l, r, &out)?,
            Query::Difference(..) => difference_op(wsd, l, r, &out)?,
            Query::Distinct(_) => dedup_op(wsd, l, &out)?,
            Query::Rename(_, from, to) => rename_op(wsd, l, from, to, &out)?,
            Query::Qualify(_, prefix) => qualify_op(wsd, l, prefix, &out)?,
        }
        Ok(out)
    }
}

/// input → out, dropping duplicate fully-certain always-existing
/// templates. Sound under the paper's set semantics: two identical
/// certain tuples denote the same set element in every world. Open
/// templates (component-backed fields or open existence) pass through
/// untouched — their correlations make them semantically distinct.
pub fn dedup_op(wsd: &mut Wsd, input: &str, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    wsd.add_relation(out, input.schema.clone())?;
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    for t in &input.tuples {
        if t.exists == Existence::Always {
            let certain: Option<Vec<Value>> = t
                .cells
                .iter()
                .map(|c| match c {
                    TemplateCell::Certain(v) => Some(v.clone()),
                    TemplateCell::Open => None,
                })
                .collect();
            if let Some(key) = certain {
                if !seen.insert(key) {
                    continue; // duplicate certain tuple: one copy suffices
                }
            }
        }
        emit_passthrough(wsd, t, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_wsd;
    use crate::examples::medical_wsd;
    use crate::exec::plan::compile;
    use maybms_relational::{ColumnType, Expr, Schema};
    use maybms_worldset::eval::eval_in_all_worlds;

    /// Runs `q` at worker counts 1, 2 and 4: every answer must equal
    /// evaluating `q` in each enumerated world, and all must be
    /// byte-identical under the codec. Returns the sequential answer.
    fn check_against_worlds(q: &Query, wsd: &Wsd) -> Wsd {
        let per_world =
            eval_in_all_worlds(&wsd.to_worldset(100_000).unwrap(), q).unwrap();
        let plan = compile(q, wsd).expect("compile");
        let sequential = eval(q, wsd).expect("eval");
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let out = Executor::new(&pool).run(&plan, wsd).expect("run");
            out.validate().unwrap();
            assert!(
                out.to_worldset(100_000).unwrap().equivalent(&per_world, 1e-9),
                "workers {workers}"
            );
            assert_eq!(encode_wsd(&out), encode_wsd(&sequential), "workers {workers}");
        }
        sequential
    }

    #[test]
    fn paper_query_matches_world_enumeration() {
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
            .project(["test"]);
        check_against_worlds(&q, &medical_wsd());
    }

    #[test]
    fn hash_join_matches_world_enumeration() {
        let mut wsd = medical_wsd();
        wsd.add_relation(
            "T",
            Schema::new(vec![("tname", ColumnType::Str), ("cost", ColumnType::Int)]),
        )
        .unwrap();
        wsd.push_certain("T", vec![Value::str("ultrasound"), Value::Int(120)]).unwrap();
        wsd.push_certain("T", vec![Value::str("TSH"), Value::Int(40)]).unwrap();
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("test").eq(Expr::col("tname")),
        );
        check_against_worlds(&q, &wsd);
    }

    /// A point selection over a large base copies nothing of it: the base
    /// re-encodes to the same bytes, and the answer holds exactly the one
    /// component its tuple reaches — no tombstones, no other slots — and
    /// shares it with the base instead of copying it. A read of a certain
    /// relation shares every chunk of slots and holds no component.
    #[test]
    fn point_selection_answer_holds_only_what_it_reaches() {
        use maybms_worldset::OrSetCell;
        let mut base = Wsd::new();
        base.add_relation("r", Schema::new(vec![("id", ColumnType::Int), ("v", ColumnType::Int)]))
            .unwrap();
        for id in 0..1_200i64 {
            let v = OrSetCell::weighted(vec![(Value::Int(id), 0.5), (Value::Int(-id), 0.5)]);
            base.push_orset("r", vec![OrSetCell::certain(id), v.unwrap()]).unwrap();
        }
        crate::normalize::normalize(&mut base);
        assert!(base.num_components() >= 1_000);
        let before = encode_wsd(&base);

        let q = Query::table("r").select(Expr::col("id").eq(Expr::lit(600i64)));
        let answer = Executor::sequential().run(&compile(&q, &base).unwrap(), &base).unwrap();
        assert_eq!(encode_wsd(&base), before, "the base is untouched");
        answer.validate().unwrap();
        assert_eq!(answer.relation("result").unwrap().tuples.len(), 1);
        assert_eq!(answer.num_component_slots(), 1);
        assert_eq!(answer.num_components(), 1);
        assert!(!answer.has_tombstones());
        let tid = answer.relation("result").unwrap().tuples[0].tid;
        let (c, _) = answer.field_loc(crate::field::Field::attr(tid, 1)).unwrap();
        let shared = base.live_components().into_iter().any(|i| {
            let (a, b) = (&answer.slots[c].comp, &base.slots[i].comp);
            matches!((a, b), (Some(a), Some(b)) if std::sync::Arc::ptr_eq(a, b))
        });
        assert!(shared, "the answer's component is the base's, not a copy");

        // a read of a certain relation copies no chunk of slots while it
        // runs and leaves no reference to a component once dropped
        base.add_relation("c", Schema::new(vec![("id", ColumnType::Int)])).unwrap();
        for id in 0..1_200i64 {
            base.push_certain("c", vec![Value::Int(id)]).unwrap();
        }
        let counts = |w: &Wsd| -> Vec<Option<usize>> {
            w.slots.iter().map(|s| s.comp.as_ref().map(std::sync::Arc::strong_count)).collect()
        };
        let before = counts(&base);
        let q = Query::table("c").select(Expr::col("id").eq(Expr::lit(600i64)));
        let plan = compile(&q, &base).unwrap();
        let mut wsd = base.clone();
        let out = Executor::sequential().exec(&plan, &mut wsd, &mut 0, &mut None).unwrap();
        assert_eq!(wsd.slots.chunks.len(), base.slots.chunks.len());
        let chunks = wsd.slots.chunks.iter().zip(&base.slots.chunks);
        assert!(chunks.into_iter().all(|(a, b)| std::sync::Arc::ptr_eq(a, b)), "no chunk copied");
        let answer = algebra::extract(wsd, &out, "result").unwrap();
        assert_eq!(answer.relation("result").unwrap().tuples.len(), 1);
        assert_eq!(answer.num_component_slots(), 0);
        drop(answer);
        assert_eq!(counts(&base), before, "no component reference outlives the read");
    }

    #[test]
    fn dedup_drops_duplicate_certain_templates() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_certain("r", vec![Value::Int(1)]).unwrap();
        // a self-union duplicates every certain template
        let q = Query::table("r").union(Query::table("r")).distinct();
        let out = check_against_worlds(&q, &w);
        assert_eq!(out.relation("result").unwrap().tuples.len(), 1);
    }

    #[test]
    fn dedup_keeps_open_templates() {
        use maybms_worldset::OrSetCell;
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_orset(
            "r",
            vec![OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap()],
        )
        .unwrap();
        let q = Query::table("r").union(Query::table("r")).distinct();
        check_against_worlds(&q, &w);
    }
}
