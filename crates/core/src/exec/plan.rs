//! Planning: the checks and the one rewrite between an optimized
//! [`Query`] and the [`super::Executor`] that walks it, the join-key rule
//! shared by execution, estimation and `EXPLAIN`, and the plan renderer.
//!
//! There is one plan tree. The optimizer rewrites the logical [`Query`];
//! [`compile`] checks it against the catalog and drops every `DISTINCT`
//! that has nothing to do; the executor walks the result node by node:
//!
//! * **Join strategy** — [`crate::algebra::join_op_in`] hash-partitions
//!   a join whose predicate has an equality conjunct with one column
//!   from each side and scans every pair otherwise. `join_key` names
//!   that conjunct with the operator's own rule, so `EXPLAIN` prints
//!   `HashJoin [l = r]` or `NestedLoopJoin` and the estimator charges
//!   the strategy that runs.
//! * **Predicate placement** — selections arrive already split and
//!   pushed down by the logical optimizer and run where it put them.
//! * **Dedup elision** — worlds are sets, so `DISTINCT` over an input
//!   that cannot carry duplicate templates (scans, filters, …) is
//!   dropped; over duplicate-capable inputs (projections, unions,
//!   joins) it stays and runs [`super::dedup_op`], which drops redundant
//!   fully-certain duplicate templates.

use maybms_relational::{Error, Expr, Result, Schema};

use crate::algebra::{equality_pairs, Query};
use crate::wsd::Wsd;

/// The inferred output schema of a plan node. This is the single
/// schema-inference implementation; the SQL optimizer delegates here.
/// It rejects unknown relations and columns and unions of unequal arity.
pub fn schema_of(q: &Query, wsd: &Wsd) -> Result<Schema> {
    Ok(match q {
        Query::Table(n) => wsd.relation(n)?.schema.clone(),
        Query::Select(i, _) | Query::Distinct(i) => schema_of(i, wsd)?,
        Query::Project(i, cols) => {
            let s = schema_of(i, wsd)?;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            s.project(&names)?
        }
        Query::Product(a, b) | Query::Join(a, b, _) => {
            schema_of(a, wsd)?.concat(&schema_of(b, wsd)?)
        }
        Query::Union(a, b) => {
            let (sa, sb) = (schema_of(a, wsd)?, schema_of(b, wsd)?);
            if sa.len() != sb.len() {
                return Err(Error::InvalidExpr(format!(
                    "union arity mismatch: {} vs {}",
                    sa.len(),
                    sb.len()
                )));
            }
            sa
        }
        Query::Difference(a, _) => schema_of(a, wsd)?,
        Query::Rename(i, from, to) => schema_of(i, wsd)?.rename(from, to)?,
        Query::Qualify(i, p) => schema_of(i, wsd)?.qualify(p),
    })
}

/// Prepares an (optimized) query for [`super::Executor::run`]: rejects
/// unknown names against the catalog of `wsd` before anything runs, and
/// drops each `DISTINCT` over a set-shaped input.
pub fn compile(q: &Query, wsd: &Wsd) -> Result<Query> {
    schema_of(q, wsd)?;
    elide_distinct(q)
}

fn elide_distinct(q: &Query) -> Result<Query> {
    match q {
        Query::Distinct(i) if set_shaped(i) => elide_distinct(i),
        _ => q.map_inputs(elide_distinct),
    }
}

/// Whether the logical node's output is already set-shaped at the
/// template level: no operator below it can have introduced duplicate
/// templates. Projections, unions, joins and products can; scans,
/// filters, renames and differences cannot.
fn set_shaped(q: &Query) -> bool {
    match q {
        Query::Table(_) | Query::Distinct(_) => true,
        Query::Select(i, _) | Query::Rename(i, _, _) | Query::Qualify(i, _) => set_shaped(i),
        Query::Difference(a, _) => set_shaped(a),
        Query::Project(..) | Query::Product(..) | Query::Join(..) | Query::Union(..) => false,
    }
}

/// The equality conjunct `pred` hash-partitions the join of `a` and `b`
/// on, as (left column, right column) — the first pair
/// [`crate::algebra::join_op_in`] finds — or `None` when the join scans
/// every pair.
pub(crate) fn join_key(a: &Query, b: &Query, pred: &Expr, wsd: &Wsd) -> Option<(String, String)> {
    let left = schema_of(a, wsd).ok()?;
    let out = left.concat(&schema_of(b, wsd).ok()?);
    let &(l, r) = equality_pairs(pred, &out, left.len()).first()?;
    Some((out.column(l).name.clone(), out.column(r).name.clone()))
}

/// Renders a plan for `EXPLAIN`, one node per line indented by depth,
/// each followed by `annot(node)`. Nodes are visited in pre-order (node
/// before inputs, left before right) — the order
/// [`super::Executor::run_traced`] numbers its samples in, so estimated
/// and actual cardinalities line up.
pub fn explain(q: &Query, wsd: &Wsd, mut annot: impl FnMut(&Query) -> String) -> String {
    let mut out = String::new();
    render(q, wsd, 0, &mut out, &mut annot);
    out
}

fn render(
    q: &Query,
    wsd: &Wsd,
    depth: usize,
    out: &mut String,
    annot: &mut dyn FnMut(&Query) -> String,
) {
    let label = match q {
        Query::Table(n) => format!("SeqScan {n}"),
        Query::Select(_, p) => format!("Filter {p}"),
        Query::Project(_, cols) => format!("Project [{}]", cols.join(", ")),
        Query::Join(a, b, p) => match join_key(a, b, p, wsd) {
            Some((l, r)) => format!("HashJoin [{l} = {r}] on {p}"),
            None => format!("NestedLoopJoin on {p}"),
        },
        Query::Product(..) => "CrossProduct".to_string(),
        Query::Union(..) => "Union".to_string(),
        Query::Difference(..) => "Difference".to_string(),
        Query::Distinct(_) => "Dedup".to_string(),
        Query::Rename(_, from, to) => format!("Rename {from} -> {to}"),
        Query::Qualify(_, p) => format!("Qualify {p}"),
    };
    out.push_str(&format!("{}{label}{}\n", "  ".repeat(depth), annot(q)));
    for i in q.inputs() {
        render(i, wsd, depth + 1, out, annot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::medical_wsd;
    use maybms_relational::{ColumnType, Value};

    fn two_table_wsd() -> Wsd {
        let mut w = medical_wsd();
        w.add_relation(
            "T",
            Schema::new(vec![("tname", ColumnType::Str), ("cost", ColumnType::Int)]),
        )
        .unwrap();
        w.push_certain("T", vec![Value::str("ultrasound"), Value::Int(120)]).unwrap();
        w
    }

    fn plain(q: &Query, w: &Wsd) -> String {
        explain(&compile(q, w).unwrap(), w, |_| String::new())
    }

    #[test]
    fn equi_join_renders_as_hash_join() {
        let w = two_table_wsd();
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("test").eq(Expr::col("tname")).and(Expr::col("cost").gt(Expr::lit(10i64))),
        );
        let Query::Join(a, b, p) = &q else { unreachable!() };
        assert_eq!(join_key(a, b, p, &w), Some(("test".to_string(), "tname".to_string())));
        let txt = plain(&q, &w);
        assert!(txt.starts_with("HashJoin [test = tname] on "), "{txt}");
        assert!(txt.contains("\n  SeqScan R\n"), "{txt}");
    }

    #[test]
    fn non_equi_join_renders_as_nested_loop() {
        let w = two_table_wsd();
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("test").lt(Expr::col("tname")),
        );
        assert!(plain(&q, &w).starts_with("NestedLoopJoin on "));
    }

    #[test]
    fn same_side_equality_is_not_a_hash_key() {
        let w = two_table_wsd();
        // both columns on the left side: no partitioning possible
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("diagnosis").eq(Expr::col("test")),
        );
        assert!(plain(&q, &w).starts_with("NestedLoopJoin on "));
    }

    /// A name both sides carry resolves to the left one, exactly as the
    /// operator binds it, so `x = c` (an `x` on each side, `c` on the
    /// right only) is a hash key.
    #[test]
    fn ambiguous_name_follows_the_operators_binding() {
        let mut w = Wsd::new();
        w.add_relation("l", Schema::new(vec![("x", ColumnType::Int)])).unwrap();
        w.add_relation("r", Schema::new(vec![("x", ColumnType::Int), ("c", ColumnType::Int)]))
            .unwrap();
        let q = Query::table("l").join(Query::table("r"), Expr::col("x").eq(Expr::col("c")));
        assert!(plain(&q, &w).starts_with("HashJoin [x = c] on "), "{}", plain(&q, &w));
    }

    #[test]
    fn distinct_elided_over_set_shaped_input() {
        let w = medical_wsd();
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("obesity")))
            .distinct();
        assert!(matches!(compile(&q, &w).unwrap(), Query::Select(..)));

        let q2 = Query::table("R").project(["diagnosis"]).distinct();
        assert!(matches!(compile(&q2, &w).unwrap(), Query::Distinct(..)));
        assert!(plain(&q2, &w).starts_with("Dedup\n  Project [diagnosis]\n"));
    }

    #[test]
    fn compile_rejects_unknown_names_at_plan_time() {
        let w = medical_wsd();
        assert!(compile(&Query::table("missing"), &w).is_err());
        assert!(compile(&Query::table("R").project(["nope"]), &w).is_err());
        let arity = Query::table("R").union(Query::table("R").project(["test"]));
        assert!(compile(&arity, &w).is_err());
    }

    #[test]
    fn schema_inference_matches_catalog() {
        let w = two_table_wsd();
        let q = Query::table("R").product(Query::table("T"));
        let s = schema_of(&q, &w).unwrap();
        assert_eq!(s.len(), 5);
        assert!(schema_of(&Query::table("missing"), &w).is_err());
    }
}
