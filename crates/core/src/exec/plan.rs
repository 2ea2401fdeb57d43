//! Physical plans: the executable operator DAG compiled from a logical
//! [`Query`] tree.
//!
//! The logical algebra says *what* to compute; the physical plan fixes
//! *how*: which join strategy runs (hash-partitioned vs nested-loop),
//! where pushed-down predicates sit, and whether a `DISTINCT` needs any
//! work at all. Compilation is rule-based, mirroring the demo's pitch of
//! "optimized query plans produced by MayBMS":
//!
//! * **Equi-join detection** — a join whose predicate contains an
//!   equality conjunct with one column from each side compiles to
//!   [`PhysOp::HashJoin`] keyed on that conjunct; anything else falls
//!   back to [`PhysOp::NestedLoopJoin`].
//! * **Predicate placement** — selections arrive already split and
//!   pushed down by the logical optimizer; compilation keeps them as
//!   [`PhysOp::Filter`] nodes exactly where the optimizer put them.
//! * **Dedup elision** — worlds are sets, so `DISTINCT` over an input
//!   that cannot carry duplicate templates (scans, filters, …) compiles
//!   to nothing; over duplicate-capable inputs (projections, unions,
//!   joins) it becomes an explicit [`PhysOp::Dedup`] that drops
//!   redundant fully-certain duplicate templates.

use maybms_relational::{CmpOp, Error, Expr, Result, Schema};

use crate::algebra::Query;
use crate::wsd::Wsd;

/// A physical operator node. Each node evaluates to a relation inside
/// the working decomposition (see [`super::Executor`]).
#[derive(Debug, Clone)]
pub enum PhysOp {
    /// Reads a base relation's template.
    SeqScan { rel: String },
    /// σ: marks failing rows ⊥ (never deletes — paper §2).
    Filter { input: Box<PhysOp>, pred: Expr },
    /// π onto named columns.
    Project { input: Box<PhysOp>, cols: Vec<String> },
    /// Hash-partitioned equi-join: builds buckets on the right side's
    /// possible key values, probes with the left.
    HashJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        pred: Expr,
        /// The detected cross-side equality conjunct `(left col, right col)`.
        key: (String, String),
    },
    /// The θ-join fallback when no cross-side equality conjunct exists.
    NestedLoopJoin { left: Box<PhysOp>, right: Box<PhysOp>, pred: Expr },
    /// Cartesian product.
    CrossProduct { left: Box<PhysOp>, right: Box<PhysOp> },
    /// Set union (template concatenation).
    Union { left: Box<PhysOp>, right: Box<PhysOp> },
    /// Set difference (per-world existence arbitration).
    Difference { left: Box<PhysOp>, right: Box<PhysOp> },
    /// Drops duplicate fully-certain templates; open templates pass
    /// through untouched (their correlations make them distinct).
    Dedup { input: Box<PhysOp> },
    /// Column rename.
    Rename { input: Box<PhysOp>, from: String, to: String },
    /// Prefixes every column (`FROM r AS a`).
    Qualify { input: Box<PhysOp>, prefix: String },
}

/// A compiled physical plan.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub root: PhysOp,
}

/// The inferred output schema of a logical plan node. This is the single
/// schema-inference implementation; the SQL optimizer delegates here.
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
        Query::Union(a, _) | Query::Difference(a, _) => schema_of(a, wsd)?,
        Query::Rename(i, from, to) => schema_of(i, wsd)?.rename(from, to)?,
        Query::Qualify(i, p) => schema_of(i, wsd)?.qualify(p),
    })
}

/// Compiles an (optimized) logical query into a physical plan against
/// the catalog of `wsd`.
pub fn compile(q: &Query, wsd: &Wsd) -> Result<PhysicalPlan> {
    Ok(PhysicalPlan { root: compile_node(q, wsd)? })
}

fn compile_node(q: &Query, wsd: &Wsd) -> Result<PhysOp> {
    Ok(match q {
        Query::Table(n) => {
            wsd.relation(n)?; // must exist at plan time
            PhysOp::SeqScan { rel: n.clone() }
        }
        Query::Select(i, p) => PhysOp::Filter {
            input: Box::new(compile_node(i, wsd)?),
            pred: p.clone(),
        },
        Query::Project(i, cols) => {
            // plan-time schema check: reject unknown columns before
            // anything runs
            let s = schema_of(i, wsd)?;
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            s.project(&names)?;
            PhysOp::Project {
                input: Box::new(compile_node(i, wsd)?),
                cols: cols.clone(),
            }
        }
        Query::Product(a, b) => PhysOp::CrossProduct {
            left: Box::new(compile_node(a, wsd)?),
            right: Box::new(compile_node(b, wsd)?),
        },
        Query::Join(a, b, p) => {
            let left = Box::new(compile_node(a, wsd)?);
            let right = Box::new(compile_node(b, wsd)?);
            let sa = schema_of(a, wsd)?;
            let sb = schema_of(b, wsd)?;
            match cross_equality(p, &sa, &sb) {
                Some(key) => PhysOp::HashJoin { left, right, pred: p.clone(), key },
                None => PhysOp::NestedLoopJoin { left, right, pred: p.clone() },
            }
        }
        Query::Union(a, b) => {
            let sa = schema_of(a, wsd)?;
            let sb = schema_of(b, wsd)?;
            if sa.len() != sb.len() {
                return Err(Error::InvalidExpr(format!(
                    "union arity mismatch: {} vs {}",
                    sa.len(),
                    sb.len()
                )));
            }
            PhysOp::Union {
                left: Box::new(compile_node(a, wsd)?),
                right: Box::new(compile_node(b, wsd)?),
            }
        }
        Query::Difference(a, b) => PhysOp::Difference {
            left: Box::new(compile_node(a, wsd)?),
            right: Box::new(compile_node(b, wsd)?),
        },
        Query::Distinct(i) => {
            let input = compile_node(i, wsd)?;
            if set_shaped(i) {
                input // elided: the input cannot carry duplicate templates
            } else {
                PhysOp::Dedup { input: Box::new(input) }
            }
        }
        Query::Rename(i, f, t) => {
            schema_of(q, wsd)?; // rejects unknown source columns at plan time
            PhysOp::Rename {
                input: Box::new(compile_node(i, wsd)?),
                from: f.clone(),
                to: t.clone(),
            }
        }
        Query::Qualify(i, p) => PhysOp::Qualify {
            input: Box::new(compile_node(i, wsd)?),
            prefix: p.clone(),
        },
    })
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

/// Finds the first equality conjunct `l = r` with `l` only in the left
/// schema and `r` only in the right (or flipped) — the hash key.
fn cross_equality(pred: &Expr, left: &Schema, right: &Schema) -> Option<(String, String)> {
    for c in pred.conjuncts() {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            if let (Expr::Col(ca), Expr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                let (a_l, a_r) = (left.contains(ca), right.contains(ca));
                let (b_l, b_r) = (left.contains(cb), right.contains(cb));
                if a_l && !a_r && b_r && !b_l {
                    return Some((ca.clone(), cb.clone()));
                }
                if b_l && !b_r && a_r && !a_l {
                    return Some((cb.clone(), ca.clone()));
                }
            }
        }
    }
    None
}

/// Renders a physical plan for `EXPLAIN`.
pub fn explain_physical(plan: &PhysicalPlan) -> String {
    explain_physical_annotated(plan, |_| String::new())
}

/// [`explain_physical`] with a per-node annotation appended to each
/// line. The annotator is called in pre-order (node before children,
/// left child before right) — the same order [`super::Executor`]'s
/// traced run numbers its nodes, so estimated and actual cardinalities
/// line up.
pub fn explain_physical_annotated(
    plan: &PhysicalPlan,
    mut annot: impl FnMut(&PhysOp) -> String,
) -> String {
    let mut out = String::new();
    render(&plan.root, 0, &mut out, &mut annot);
    out
}

fn render(op: &PhysOp, depth: usize, out: &mut String, annot: &mut dyn FnMut(&PhysOp) -> String) {
    let pad = "  ".repeat(depth);
    let note = annot(op);
    match op {
        PhysOp::SeqScan { rel } => out.push_str(&format!("{pad}SeqScan {rel}{note}\n")),
        PhysOp::Filter { input, pred } => {
            out.push_str(&format!("{pad}Filter {pred}{note}\n"));
            render(input, depth + 1, out, annot);
        }
        PhysOp::Project { input, cols } => {
            out.push_str(&format!("{pad}Project [{}]{note}\n", cols.join(", ")));
            render(input, depth + 1, out, annot);
        }
        PhysOp::HashJoin { left, right, pred, key } => {
            out.push_str(&format!(
                "{pad}HashJoin [{} = {}] on {pred}{note}\n",
                key.0, key.1
            ));
            render(left, depth + 1, out, annot);
            render(right, depth + 1, out, annot);
        }
        PhysOp::NestedLoopJoin { left, right, pred } => {
            out.push_str(&format!("{pad}NestedLoopJoin on {pred}{note}\n"));
            render(left, depth + 1, out, annot);
            render(right, depth + 1, out, annot);
        }
        PhysOp::CrossProduct { left, right } => {
            out.push_str(&format!("{pad}CrossProduct{note}\n"));
            render(left, depth + 1, out, annot);
            render(right, depth + 1, out, annot);
        }
        PhysOp::Union { left, right } => {
            out.push_str(&format!("{pad}Union{note}\n"));
            render(left, depth + 1, out, annot);
            render(right, depth + 1, out, annot);
        }
        PhysOp::Difference { left, right } => {
            out.push_str(&format!("{pad}Difference{note}\n"));
            render(left, depth + 1, out, annot);
            render(right, depth + 1, out, annot);
        }
        PhysOp::Dedup { input } => {
            out.push_str(&format!("{pad}Dedup{note}\n"));
            render(input, depth + 1, out, annot);
        }
        PhysOp::Rename { input, from, to } => {
            out.push_str(&format!("{pad}Rename {from} -> {to}{note}\n"));
            render(input, depth + 1, out, annot);
        }
        PhysOp::Qualify { input, prefix } => {
            out.push_str(&format!("{pad}Qualify {prefix}{note}\n"));
            render(input, depth + 1, out, annot);
        }
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

    #[test]
    fn equi_join_compiles_to_hash_join() {
        let w = two_table_wsd();
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("test").eq(Expr::col("tname")).and(Expr::col("cost").gt(Expr::lit(10i64))),
        );
        let plan = compile(&q, &w).unwrap();
        let PhysOp::HashJoin { key, .. } = &plan.root else {
            panic!("expected HashJoin, got {:?}", plan.root)
        };
        assert_eq!(key, &("test".to_string(), "tname".to_string()));
        let txt = explain_physical(&plan);
        assert!(txt.contains("HashJoin [test = tname]"), "{txt}");
        assert!(txt.contains("SeqScan R"), "{txt}");
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let w = two_table_wsd();
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("test").lt(Expr::col("tname")),
        );
        let plan = compile(&q, &w).unwrap();
        assert!(matches!(plan.root, PhysOp::NestedLoopJoin { .. }), "{:?}", plan.root);
    }

    #[test]
    fn same_side_equality_is_not_a_hash_key() {
        let w = two_table_wsd();
        // both columns on the left side: no partitioning possible
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("diagnosis").eq(Expr::col("test")),
        );
        let plan = compile(&q, &w).unwrap();
        assert!(matches!(plan.root, PhysOp::NestedLoopJoin { .. }));
    }

    #[test]
    fn distinct_elided_over_set_shaped_input() {
        let w = medical_wsd();
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("obesity")))
            .distinct();
        let plan = compile(&q, &w).unwrap();
        assert!(matches!(plan.root, PhysOp::Filter { .. }), "{:?}", plan.root);

        let q2 = Query::table("R").project(["diagnosis"]).distinct();
        let plan2 = compile(&q2, &w).unwrap();
        assert!(matches!(plan2.root, PhysOp::Dedup { .. }), "{:?}", plan2.root);
    }

    #[test]
    fn compile_rejects_unknown_names_at_plan_time() {
        let w = medical_wsd();
        assert!(compile(&Query::table("missing"), &w).is_err());
        assert!(compile(&Query::table("R").project(["nope"]), &w).is_err());
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
