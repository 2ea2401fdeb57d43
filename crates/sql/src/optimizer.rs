//! Plan rewriting: the "optimized query plans produced by MayBMS" of the
//! demo (§1). Rule-based:
//!
//! 1. **Selection splitting & pushdown** — conjuncts of a selection above a
//!    product/join are routed to the side whose schema covers them; mixed
//!    conjuncts become the join condition (turning σ(A×B) into A ⋈ B).
//! 2. **Selection fusion** — σ_p(σ_q(X)) → σ_{p∧q}(X).
//! 3. **Selection through union** — σ(A ∪ B) → σ(A) ∪ σ(B).
//! 4. **Projection fusion** — π(π(X)) keeps only the outer one.
//!
//! Rules are applied to a fixpoint. The optimizer needs the catalog (the
//! WSD's relation schemas) to attribute columns to sides.
//!
//! # Cost-based join ordering
//!
//! After the rule fixpoint, clusters of three or more join/product
//! inputs are re-ordered by a bushy dynamic program over input subsets
//! ([`optimize_with_stats`]): per-subset cardinalities come from the
//! [`maybms_core::stats::WsdStats`] collector (per-column distinct
//! counts, textbook selectivity rules), the cost of a node is the number
//! of rows it touches (hash join: both inputs plus output; nested loop:
//! the pair product), and each cross conjunct attaches to the first
//! subtree covering both its sides. The chosen order is wrapped in a
//! projection restoring the original column order, so the plan's schema
//! — and its world semantics — are unchanged. Two-input joins keep their
//! AST order (nothing to gain, and EXPLAIN stays stable).

use std::collections::HashMap;

use maybms_core::algebra::Query;
use maybms_core::exec::schema_of;
use maybms_core::stats::{estimate_query, selectivity, Estimate, WsdStats};
use maybms_core::wsd::Wsd;
use maybms_relational::{CmpOp, Expr, Result, Schema};

/// Reordering clusters above this size would make the subset DP itself
/// the bottleneck; such plans keep their AST order.
const MAX_REORDER_INPUTS: usize = 12;

/// Optimizes a plan to a fixpoint (bounded rounds for safety), then
/// reorders join clusters with a throwaway stats collector.
pub fn optimize(q: &Query, wsd: &Wsd) -> Result<Query> {
    optimize_with_stats(q, wsd, &mut WsdStats::new())
}

/// [`optimize`] with a caller-held stats collector, so repeated queries
/// against the same decomposition reuse cached per-relation statistics.
pub fn optimize_with_stats(q: &Query, wsd: &Wsd, stats: &mut WsdStats) -> Result<Query> {
    let mut cur = q.clone();
    for _ in 0..16 {
        let (next, changed) = rewrite(&cur, wsd)?;
        cur = next;
        if !changed {
            break;
        }
    }
    reorder_joins(&cur, wsd, stats)
}

fn rewrite(q: &Query, wsd: &Wsd) -> Result<(Query, bool)> {
    // bottom-up
    let mut changed = false;
    let q = q.map_inputs(|i| {
        let (i2, c) = rewrite(i, wsd)?;
        changed |= c;
        Ok(i2)
    })?;

    // top rules
    let rewritten = match &q {
        // rule 2: selection fusion
        Query::Select(inner, p) => {
            if let Query::Select(inner2, p2) = inner.as_ref() {
                Some(Query::Select(
                    inner2.clone(),
                    p2.clone().and(p.clone()),
                ))
            } else if let Query::Union(a, b) = inner.as_ref() {
                // rule 3: through union
                Some(Query::Union(
                    Box::new(Query::Select(a.clone(), p.clone())),
                    Box::new(Query::Select(b.clone(), p.clone())),
                ))
            } else if let Query::Product(a, b) = inner.as_ref() {
                // rule 1: split & push into the product
                Some(push_into_product(a, b, p, wsd)?)
            } else if let Query::Join(a, b, jp) = inner.as_ref() {
                // fold extra conjuncts into the join
                let combined = jp.clone().and(p.clone());
                Some(push_into_product(a, b, &combined, wsd)?)
            } else {
                None
            }
        }
        // rule 4: projection fusion — π_outer(π_inner(X)) = π_outer(X)
        // (valid because the outer list must be a subset of the inner one)
        Query::Project(inner, cols) => {
            if let Query::Project(inner2, _) = inner.as_ref() {
                Some(Query::Project(inner2.clone(), cols.clone()))
            } else {
                None
            }
        }
        _ => None,
    };

    Ok(match rewritten {
        Some(r) => (r, true),
        None => (q, changed),
    })
}

/// Distributes the conjuncts of `pred` over `a × b`: conjuncts referencing
/// only `a`'s columns become σ on `a`, only `b`'s on `b`, and the rest the
/// join condition.
fn push_into_product(a: &Query, b: &Query, pred: &Expr, wsd: &Wsd) -> Result<Query> {
    let sa = schema_of(a, wsd)?;
    let sb = schema_of(b, wsd)?;
    let mut left: Vec<Expr> = Vec::new();
    let mut right: Vec<Expr> = Vec::new();
    let mut cross: Vec<Expr> = Vec::new();
    for c in pred.conjuncts() {
        let cols = c.columns();
        // a column that exists on both sides is ambiguous → treat as cross
        let only_a = cols.iter().all(|n| sa.contains(n) && !sb.contains(n));
        let only_b = cols.iter().all(|n| sb.contains(n) && !sa.contains(n));
        if only_a {
            left.push(c.clone());
        } else if only_b {
            right.push(c.clone());
        } else {
            cross.push(c.clone());
        }
    }
    let la: Query = if left.is_empty() {
        a.clone()
    } else {
        Query::Select(Box::new(a.clone()), Expr::conjoin(left))
    };
    let rb: Query = if right.is_empty() {
        b.clone()
    } else {
        Query::Select(Box::new(b.clone()), Expr::conjoin(right))
    };
    Ok(if cross.is_empty() {
        Query::Product(Box::new(la), Box::new(rb))
    } else {
        Query::Join(Box::new(la), Box::new(rb), Expr::conjoin(cross))
    })
}

/// Walks the plan, reordering every join/product cluster of three or
/// more inputs via the subset DP; a cluster the DP leaves alone, and
/// every other node, keeps its shape over recursed inputs.
fn reorder_joins(q: &Query, wsd: &Wsd, stats: &mut WsdStats) -> Result<Query> {
    if matches!(q, Query::Join(..) | Query::Product(..)) {
        if let Some(reordered) = reorder_cluster(q, wsd, stats)? {
            return Ok(reordered);
        }
    }
    q.map_inputs(|i| reorder_joins(i, wsd, stats))
}

/// Collects the maximal join/product cluster rooted at `q`: its non-join
/// inputs (each recursively reordered) and every join conjunct.
fn flatten_joins(
    q: &Query,
    wsd: &Wsd,
    stats: &mut WsdStats,
    inputs: &mut Vec<Query>,
    conjuncts: &mut Vec<Expr>,
) -> Result<()> {
    match q {
        Query::Join(a, b, p) => {
            flatten_joins(a, wsd, stats, inputs, conjuncts)?;
            flatten_joins(b, wsd, stats, inputs, conjuncts)?;
            conjuncts.extend(p.conjuncts().into_iter().cloned());
        }
        Query::Product(a, b) => {
            flatten_joins(a, wsd, stats, inputs, conjuncts)?;
            flatten_joins(b, wsd, stats, inputs, conjuncts)?;
        }
        other => inputs.push(reorder_joins(other, wsd, stats)?),
    }
    Ok(())
}

/// The `l = r` column pair of a cross equality conjunct, if any.
fn eq_cols(c: &Expr) -> Option<(&str, &str)> {
    if let Expr::Cmp(CmpOp::Eq, a, b) = c {
        if let (Expr::Col(ca), Expr::Col(cb)) = (a.as_ref(), b.as_ref()) {
            return Some((ca, cb));
        }
    }
    None
}

/// Reorders one join/product cluster by a bushy dynamic program over the
/// power set of its inputs. `None` keeps the AST order: the cluster has
/// fewer than three inputs, the inputs' column names collide, a conjunct
/// references unknown columns, or estimation fails.
fn reorder_cluster(q: &Query, wsd: &Wsd, stats: &mut WsdStats) -> Result<Option<Query>> {
    let mut inputs: Vec<Query> = Vec::new();
    let mut conjuncts: Vec<Expr> = Vec::new();
    flatten_joins(q, wsd, stats, &mut inputs, &mut conjuncts)?;
    let n = inputs.len();
    if !(3..=MAX_REORDER_INPUTS).contains(&n) {
        return Ok(None);
    }

    // The inputs' schemas; reordering needs globally unique column names
    // to re-attribute conjuncts and restore the output column order.
    let schemas: Vec<Schema> = match inputs.iter().map(|i| schema_of(i, wsd)).collect() {
        Ok(s) => s,
        Err(_) => return Ok(None),
    };
    let mut col_input: HashMap<String, usize> = HashMap::new();
    for (i, s) in schemas.iter().enumerate() {
        for name in s.names() {
            if col_input.insert(name.to_string(), i).is_some() {
                return Ok(None); // ambiguous column name
            }
        }
    }

    // Attribute every conjunct to the set of inputs it references.
    // Single-input conjuncts sink into their input as selections; free
    // conjuncts (no columns) re-attach above the cluster.
    let mut masked: Vec<(u32, Expr)> = Vec::new();
    let mut free: Vec<Expr> = Vec::new();
    for c in conjuncts {
        let mut mask = 0u32;
        for col in c.columns() {
            match col_input.get(col) {
                Some(&i) => mask |= 1 << i,
                None => return Ok(None),
            }
        }
        match mask.count_ones() {
            0 => free.push(c),
            1 => {
                let i = mask.trailing_zeros() as usize;
                inputs[i] = Query::Select(Box::new(inputs[i].clone()), c);
            }
            _ => masked.push((mask, c)),
        }
    }

    // Per-input and whole-cluster estimates; conjunct selectivities are
    // order-independent, so per-subset cardinalities are well defined.
    let ests: Vec<Estimate> = match inputs.iter().map(|i| estimate_query(i, wsd, stats)).collect()
    {
        Ok(e) => e,
        Err(_) => return Ok(None),
    };
    let mut global = Estimate { rows: 1.0, ..Estimate::default() };
    for e in &ests {
        global.rows *= e.rows.max(1.0);
        global.distinct.extend(e.distinct.clone());
    }
    let sels: Vec<f64> = masked.iter().map(|(_, c)| selectivity(c, &global)).collect();

    // Estimated output rows of every input subset.
    let full = (1usize << n) - 1;
    let mut rows = vec![0.0f64; full + 1];
    for (s, row) in rows.iter_mut().enumerate().skip(1) {
        let mut r = 1.0;
        for (i, e) in ests.iter().enumerate() {
            if s & (1 << i) != 0 {
                r *= e.rows;
            }
        }
        for ((mask, _), sel) in masked.iter().zip(&sels) {
            if (*mask as usize) & s == *mask as usize {
                r *= sel;
            }
        }
        *row = r;
    }

    // Bushy DP: cost[s] = cheapest way to join the subset, in rows
    // touched; conjuncts attach at the first node covering both sides.
    let mut cost = vec![f64::INFINITY; full + 1];
    let mut plan: Vec<Option<Query>> = vec![None; full + 1];
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); full + 1];
    for i in 0..n {
        let s = 1usize << i;
        cost[s] = ests[i].rows;
        plan[s] = Some(inputs[i].clone());
        order[s] = vec![i];
    }
    for s in 1..=full {
        if s.count_ones() < 2 {
            continue;
        }
        // the canonical split keeps the subset's lowest input on the left
        let low = s & s.wrapping_neg();
        let mut best: Option<(f64, usize)> = None;
        let mut l = (s - 1) & s;
        while l > 0 {
            if l & low != 0 {
                let r = s & !l;
                // node conjuncts: covered by s, crossing the split
                let node: Vec<usize> = masked
                    .iter()
                    .enumerate()
                    .filter(|(_, (m, _))| {
                        let m = *m as usize;
                        m & s == m && m & l != 0 && m & r != 0
                    })
                    .map(|(k, _)| k)
                    .collect();
                let hashable = node.iter().any(|&k| {
                    eq_cols(&masked[k].1).is_some_and(|(a, b)| {
                        let ma = 1usize << col_input[a];
                        let mb = 1usize << col_input[b];
                        (ma & l != 0 && mb & r != 0) || (ma & r != 0 && mb & l != 0)
                    })
                });
                let pair = if hashable {
                    rows[l] + rows[r] + rows[s]
                } else {
                    rows[l] * rows[r]
                };
                let c = cost[l] + cost[r] + pair;
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, l));
                }
            }
            l = (l - 1) & s;
        }
        let (c, l) = best.expect("non-singleton subset has a split"); // maybms-lint: allow(no-panic-in-prod) -- every subset with two or more relations has at least one proper split, so a best split is always found
        let r = s & !l;
        let node: Vec<Expr> = masked
            .iter()
            .filter(|(m, _)| {
                let m = *m as usize;
                m & s == m && m & l != 0 && m & r != 0
            })
            .map(|(_, c)| c.clone())
            .collect();
        let (lp, rp) = (plan[l].clone().expect("built"), plan[r].clone().expect("built")); // maybms-lint: allow(no-panic-in-prod) -- the DP fills every smaller subset before visiting this one
        plan[s] = Some(if node.is_empty() {
            Query::Product(Box::new(lp), Box::new(rp))
        } else {
            Query::Join(Box::new(lp), Box::new(rp), Expr::conjoin(node))
        });
        cost[s] = c;
        order[s] = order[l].iter().chain(order[r].iter()).copied().collect();
    }

    let mut result = plan[full].take().expect("full subset built"); // maybms-lint: allow(no-panic-in-prod) -- the DP fills the full-set slot before extraction
    if !free.is_empty() {
        result = Query::Select(Box::new(result), Expr::conjoin(free));
    }
    // Restore the cluster's original column order so the surrounding
    // plan (and the final result schema) is unchanged.
    if order[full] != (0..n).collect::<Vec<_>>() {
        let names: Vec<String> =
            schemas.iter().flat_map(|s| s.names().into_iter().map(str::to_string)).collect();
        result = Query::Project(Box::new(result), names);
    }
    Ok(Some(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_core::examples::medical_wsd;
    use maybms_core::exec::{eval, explain as render};
    use maybms_relational::{ColumnType, Schema};
    use maybms_worldset::eval::eval_in_all_worlds;

    fn explain(q: &Query, w: &Wsd) -> String {
        render(q, w, |_| String::new())
    }

    fn two_table_wsd() -> Wsd {
        let mut w = medical_wsd();
        w.add_relation(
            "T",
            Schema::new(vec![("tname", ColumnType::Str), ("cost", ColumnType::Int)]),
        )
        .unwrap();
        w.push_certain(
            "T",
            vec![maybms_relational::Value::str("ultrasound"), maybms_relational::Value::Int(120)],
        )
        .unwrap();
        w.push_certain(
            "T",
            vec![maybms_relational::Value::str("TSH"), maybms_relational::Value::Int(40)],
        )
        .unwrap();
        w
    }

    #[test]
    fn pushdown_turns_product_into_join() {
        let w = two_table_wsd();
        let q = Query::table("R")
            .product(Query::table("T"))
            .select(
                Expr::col("test")
                    .eq(Expr::col("tname"))
                    .and(Expr::col("cost").gt(Expr::lit(50i64)))
                    .and(Expr::col("diagnosis").eq(Expr::lit("pregnancy"))),
            );
        let opt = optimize(&q, &w).unwrap();
        let txt = explain(&opt, &w);
        assert!(txt.contains("HashJoin [test = tname] on"), "expected a join, got:\n{txt}");
        assert!(
            txt.contains("Filter (diagnosis = 'pregnancy')"),
            "left selection must be pushed down:\n{txt}"
        );
        assert!(
            txt.contains("Filter (cost > 50)"),
            "right selection must be pushed down:\n{txt}"
        );
    }

    #[test]
    fn optimized_plan_is_equivalent() {
        let w = two_table_wsd();
        let q = Query::table("R")
            .product(Query::table("T"))
            .select(Expr::col("test").eq(Expr::col("tname")))
            .project(["diagnosis", "cost"]);
        let opt = optimize(&q, &w).unwrap();
        let lhs = eval(&q, &w).unwrap().to_worldset(100_000).unwrap();
        let rhs = eval(&opt, &w).unwrap().to_worldset(100_000).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
        // and both equal the per-world evaluation
        let oracle =
            eval_in_all_worlds(&w.to_worldset(100_000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&oracle, 1e-9));
    }

    #[test]
    fn selection_fusion_and_union_distribution() {
        let w = medical_wsd();
        let q = Query::table("R")
            .union(Query::table("R"))
            .select(Expr::col("diagnosis").eq(Expr::lit("obesity")))
            .select(Expr::col("test").eq(Expr::lit("BMI")));
        let opt = optimize(&q, &w).unwrap();
        let txt = explain(&opt, &w);
        assert!(txt.starts_with("Union"), "selection should distribute:\n{txt}");
        let lhs = eval(&q, &w).unwrap().to_worldset(100_000).unwrap();
        let rhs = eval(&opt, &w).unwrap().to_worldset(100_000).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn projection_fusion() {
        let w = medical_wsd();
        let q = Query::table("R")
            .project(["diagnosis", "test"])
            .project(["test"]);
        let opt = optimize(&q, &w).unwrap();
        let txt = explain(&opt, &w);
        assert_eq!(txt.matches("Project").count(), 1, "{txt}");
        let lhs = eval(&q, &w).unwrap().to_worldset(1000).unwrap();
        let rhs = eval(&opt, &w).unwrap().to_worldset(1000).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    fn three_table_wsd() -> Wsd {
        use maybms_relational::Value;
        let mut w = Wsd::new();
        w.add_relation("big1", Schema::new(vec![("x", ColumnType::Int)])).unwrap();
        w.add_relation(
            "big2",
            Schema::new(vec![("y", ColumnType::Int), ("tag", ColumnType::Int)]),
        )
        .unwrap();
        w.add_relation("tiny", Schema::new(vec![("z", ColumnType::Int)])).unwrap();
        for i in 0..20 {
            w.push_certain("big1", vec![Value::Int(i)]).unwrap();
            w.push_certain("big2", vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
        }
        w.push_certain("tiny", vec![Value::Int(1)]).unwrap();
        w
    }

    /// AST order joins the two big tables first; the DP must start from
    /// the tiny one — and wrap the new order in a projection restoring
    /// the original column order.
    #[test]
    fn cost_model_reorders_three_way_join() {
        let w = three_table_wsd();
        let q = Query::table("big1")
            .join(Query::table("big2"), Expr::col("x").eq(Expr::col("y")))
            .join(Query::table("tiny"), Expr::col("y").eq(Expr::col("z")));
        let opt = optimize(&q, &w).unwrap();
        let txt = explain(&opt, &w);
        // the first join executed (deepest in the tree) must involve tiny
        let deepest = txt
            .lines()
            .filter(|l| l.trim_start().starts_with("SeqScan"))
            .collect::<Vec<_>>();
        assert!(
            txt.contains("SeqScan tiny"),
            "tiny must appear in the reordered plan:\n{txt}"
        );
        assert_eq!(deepest.len(), 3, "{txt}");
        // schema order restored
        assert_eq!(
            schema_of(&opt, &w).unwrap().names(),
            schema_of(&q, &w).unwrap().names(),
            "{txt}"
        );
        // the reorder keeps world semantics
        let lhs = eval(&q, &w).unwrap().to_worldset(100).unwrap();
        let rhs = eval(&opt, &w).unwrap().to_worldset(100).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
        // and the chosen plan does not join the two big tables first:
        // the cheapest subtree pairs tiny with a big table.
        let est_ast = {
            let mut stats = WsdStats::new();
            maybms_core::stats::estimate_query(&q, &w, &mut stats).unwrap().rows
        };
        let est_opt = {
            let mut stats = WsdStats::new();
            maybms_core::stats::estimate_query(&opt, &w, &mut stats).unwrap().rows
        };
        assert!((est_ast - est_opt).abs() < 1e-6, "same final cardinality");
    }

    /// Two-input joins keep their AST order — existing EXPLAIN output
    /// must not change shape for simple queries.
    #[test]
    fn two_way_join_keeps_ast_order() {
        let w = two_table_wsd();
        let q = Query::table("R").join(
            Query::table("T"),
            Expr::col("test").eq(Expr::col("tname")),
        );
        let opt = optimize(&q, &w).unwrap();
        let txt = explain(&opt, &w);
        assert!(txt.starts_with("HashJoin [test = tname] on"), "{txt}");
        assert!(!txt.contains("Project"), "no restoration projection:\n{txt}");
    }

    /// Ambiguous column names across inputs disable reordering rather
    /// than producing a wrong attribution.
    #[test]
    fn duplicate_columns_fall_back_to_ast_order() {
        let w = three_table_wsd();
        let q = Query::table("big1")
            .product(Query::table("big1"))
            .product(Query::table("tiny"));
        let opt = optimize(&q, &w).unwrap();
        let lhs = eval(&q, &w).unwrap().to_worldset(100).unwrap();
        let rhs = eval(&opt, &w).unwrap().to_worldset(100).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn schema_inference() {
        let w = two_table_wsd();
        let q = Query::table("R").product(Query::table("T"));
        let s = schema_of(&q, &w).unwrap();
        assert_eq!(s.len(), 5);
        assert!(schema_of(&Query::table("missing"), &w).is_err());
    }
}
