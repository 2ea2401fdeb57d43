//! The executor: the one plan walker. It evaluates a [`PhysicalPlan`]
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
    self, difference_op, join_op_in, join_op_nested, product_op, project_op, qualify_op,
    rename_op, select_op, union_op,
};
use crate::wsd::{Existence, TemplateCell, Wsd};

use super::plan::{PhysOp, PhysicalPlan};
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
const OP_KINDS: [&str; 11] = [
    "seq_scan",
    "filter",
    "project",
    "hash_join",
    "nested_loop_join",
    "cross_product",
    "union",
    "difference",
    "dedup",
    "rename",
    "qualify",
];

fn op_kind_index(op: &PhysOp) -> usize {
    match op {
        PhysOp::SeqScan { .. } => 0,
        PhysOp::Filter { .. } => 1,
        PhysOp::Project { .. } => 2,
        PhysOp::HashJoin { .. } => 3,
        PhysOp::NestedLoopJoin { .. } => 4,
        PhysOp::CrossProduct { .. } => 5,
        PhysOp::Union { .. } => 6,
        PhysOp::Difference { .. } => 7,
        PhysOp::Dedup { .. } => 8,
        PhysOp::Rename { .. } => 9,
        PhysOp::Qualify { .. } => 10,
    }
}

/// Per-operator-kind output-row counters (`exec.rows.<kind>`), resolved
/// once. Driven by the deterministic serial tail of every operator, so
/// their totals are identical at every worker count.
fn row_counters() -> &'static [Arc<Counter>; 11] {
    static C: OnceLock<[Arc<Counter>; 11]> = OnceLock::new();
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

/// Executes physical plans; hash joins probe on `pool`.
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

    pub fn pool(&self) -> &WorkerPool {
        self.pool
    }

    /// Runs the plan on a decomposition, producing a decomposition of the
    /// answer world-set whose single relation is named `"result"`.
    pub fn run(&self, plan: &PhysicalPlan, base: &Wsd) -> Result<Wsd> {
        self.run_with(plan, base, &mut None)
    }

    /// [`Executor::run`] recording, per plan node, the number of output
    /// template tuples it produced and its wall-clock evaluation time.
    /// Samples are indexed in pre-order (node before children, left
    /// before right) — the order
    /// [`super::plan::explain_physical_annotated`] visits nodes, so
    /// `EXPLAIN ANALYZE` can zip them onto the rendered tree.
    pub fn run_traced(&self, plan: &PhysicalPlan, base: &Wsd) -> Result<(Wsd, Vec<NodeTrace>)> {
        let mut trace = Some(Vec::new());
        let result = self.run_with(plan, base, &mut trace)?;
        Ok((result, trace.unwrap_or_default()))
    }

    /// Evaluates the plan inside a shared clone of `base` (operators add
    /// their intermediate relations to it), then extracts the root's.
    fn run_with(
        &self,
        plan: &PhysicalPlan,
        base: &Wsd,
        trace: &mut Option<Vec<NodeTrace>>,
    ) -> Result<Wsd> {
        let mut wsd = base.clone();
        let mut counter = 0usize;
        let out = self.exec(&plan.root, &mut wsd, &mut counter, trace)?;
        algebra::extract(wsd, &out, "result")
    }

    /// Evaluates one node into `wsd`, returning the name of the relation
    /// holding its answer. When `trace` is enabled, records the node's
    /// sample at its pre-order index; either way the node's output rows
    /// feed the `exec.rows.<kind>` counters (while recording is enabled).
    fn exec(
        &self,
        op: &PhysOp,
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
        let out = self.exec_node(op, wsd, counter, trace)?;
        if trace.is_some() || maybms_obs::enabled() {
            let rows = wsd.relation(&out)?.tuples.len();
            row_counters()[op_kind_index(op)].add(rows as u64);
            if let (Some(t), Some(i), Some(b)) = (trace.as_mut(), slot, began) {
                t[i] = NodeTrace { rows, elapsed: b.elapsed() };
            }
        }
        Ok(out)
    }

    fn exec_node(
        &self,
        op: &PhysOp,
        wsd: &mut Wsd,
        counter: &mut usize,
        trace: &mut Option<Vec<NodeTrace>>,
    ) -> Result<String> {
        Ok(match op {
            PhysOp::SeqScan { rel } => {
                wsd.relation(rel)?;
                rel.clone()
            }
            PhysOp::Filter { input, pred } => {
                let i = self.exec(input, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                select_op(wsd, &i, pred, &out)?;
                out
            }
            PhysOp::Project { input, cols } => {
                let i = self.exec(input, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                let names: Vec<&str> = cols.iter().map(String::as_str).collect();
                project_op(wsd, &i, &names, &out)?;
                out
            }
            PhysOp::HashJoin { left, right, pred, .. } => {
                let l = self.exec(left, wsd, counter, trace)?;
                let r = self.exec(right, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                join_op_in(wsd, &l, &r, pred, &out, self.pool)?;
                out
            }
            PhysOp::NestedLoopJoin { left, right, pred } => {
                let l = self.exec(left, wsd, counter, trace)?;
                let r = self.exec(right, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                join_op_nested(wsd, &l, &r, pred, &out)?;
                out
            }
            PhysOp::CrossProduct { left, right } => {
                let l = self.exec(left, wsd, counter, trace)?;
                let r = self.exec(right, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                product_op(wsd, &l, &r, &out)?;
                out
            }
            PhysOp::Union { left, right } => {
                let l = self.exec(left, wsd, counter, trace)?;
                let r = self.exec(right, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                union_op(wsd, &l, &r, &out)?;
                out
            }
            PhysOp::Difference { left, right } => {
                let l = self.exec(left, wsd, counter, trace)?;
                let r = self.exec(right, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                difference_op(wsd, &l, &r, &out)?;
                out
            }
            PhysOp::Dedup { input } => {
                let i = self.exec(input, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                dedup_op(wsd, &i, &out)?;
                out
            }
            PhysOp::Rename { input, from, to } => {
                let i = self.exec(input, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                rename_op(wsd, &i, from, to, &out)?;
                out
            }
            PhysOp::Qualify { input, prefix } => {
                let i = self.exec(input, wsd, counter, trace)?;
                let out = fresh(wsd, counter);
                qualify_op(wsd, &i, prefix, &out)?;
                out
            }
        })
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
    use crate::algebra::Query;
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
            eval_in_all_worlds(&wsd.to_worldset(100_000).unwrap(), &q.to_world_query()).unwrap();
        let plan = compile(q, wsd).expect("compile");
        let sequential = q.eval(wsd).expect("eval");
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
        let out = Executor::sequential().exec(&plan.root, &mut wsd, &mut 0, &mut None).unwrap();
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
