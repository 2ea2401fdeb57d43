//! Product and θ-join on decompositions.
//!
//! A result tuple is created per pair of input tuples; its fields alias
//! both inputs' columns, so all correlations (including self-join
//! correlation) are preserved. The join condition, where not statically
//! decidable, is materialized per pair by merging the touched components
//! and appending an existence column. Pairs whose possible value sets
//! cannot satisfy an equality conjunct are pruned without any merging.
//!
//! # Hash partitioning
//!
//! When the predicate contains an equality conjunct across the two sides,
//! [`join_op_in`] buckets the right tuples by the possible values of their
//! equality column and probes each left tuple only against the buckets of
//! *its* possible values — O(|L| + |R| + matches) pair generation instead
//! of the O(|L|·|R|) nested loop. Bucketing on `Value` keys is sound
//! because `Value`'s `Eq`/`Hash` agree with SQL equality on non-NULL
//! values (`1 = 1.0` hashes alike) and NULL never joins. Tuples with
//! multiple possible key values (open or-set fields) are inserted into one
//! bucket per value and deduplicated at probe time; residual equality
//! conjuncts still prune via possible-value intersection. Predicates with
//! no cross-side equality conjunct take the nested loop
//! ([`join_op_nested`]), which the hash path is also tested against.

use std::collections::HashMap;
use std::sync::Arc;

use maybms_relational::{CmpOp, Expr, Result, Value};

use crate::cell::Cell;
use crate::field::Field;
use crate::wsd::{Existence, RelTemplate, TupleTemplate, Wsd};

use super::common::{
    add_exists_column, alias_cells, bind_pred, bucket_by_possible_values, certain_values_at,
    dead_in_row, eval_partial, exists_loc, open_fields_at, possible_values_of, snapshot,
    values_intersect,
};
use crate::exec::WorkerPool;

/// input_l × input_r → out (cartesian product).
pub fn product_op(wsd: &mut Wsd, left: &str, right: &str, out: &str) -> Result<()> {
    join_op_nested(wsd, left, right, &Expr::lit(true), out)
}

/// Pre-computed pruning state for one side of a join.
struct SidePoss {
    /// per tuple, per equality conjunct: the possible values of the
    /// tuple's column of that conjunct.
    per_tuple: Vec<Vec<Vec<Value>>>,
}

fn side_poss(
    wsd: &Wsd,
    rel: &str,
    tuples: &[TupleTemplate],
    positions: impl Fn(usize) -> usize + Copy,
    npairs: usize,
) -> Result<SidePoss> {
    let mut per_tuple = Vec::with_capacity(tuples.len());
    for t in tuples {
        let mut per = Vec::with_capacity(npairs);
        for k in 0..npairs {
            per.push(possible_values_of(wsd, rel, t, positions(k))?);
        }
        per_tuple.push(per);
    }
    Ok(SidePoss { per_tuple })
}

/// Inputs every join strategy needs, snapshotted and bound exactly once.
struct JoinPrep {
    l: Arc<RelTemplate>,
    r: Arc<RelTemplate>,
    bound: maybms_relational::BoundExpr,
    positions: Vec<usize>,
    larity: usize,
    arity: usize,
    eq_pairs: Vec<(usize, usize)>,
    l_poss: SidePoss,
    r_poss: SidePoss,
}

/// Snapshots both sides, binds the predicate, registers `out`, and
/// precomputes the per-tuple possible values of every equality conjunct.
fn prepare_join(
    wsd: &mut Wsd,
    left: &str,
    right: &str,
    pred: &Expr,
    out: &str,
) -> Result<JoinPrep> {
    let (l, r) = (snapshot(wsd, left)?, snapshot(wsd, right)?);
    let out_schema = l.schema.concat(&r.schema);
    let larity = l.schema.len();
    let eq_pairs = equality_pairs(pred, &out_schema, larity);
    let (bound, positions) = bind_pred(pred, &out_schema)?;
    let arity = out_schema.len();
    wsd.add_relation(out, out_schema)?;
    let l_poss = side_poss(wsd, left, &l.tuples, |k| eq_pairs[k].0, eq_pairs.len())?;
    let r_poss = side_poss(wsd, right, &r.tuples, |k| eq_pairs[k].1 - larity, eq_pairs.len())?;
    Ok(JoinPrep { l, r, bound, positions, larity, arity, eq_pairs, l_poss, r_poss })
}

/// The nested-loop pair scan shared by both entry points.
fn nested_scan(wsd: &mut Wsd, p: &JoinPrep, out: &str) -> Result<()> {
    for (li, t) in p.l.tuples.iter().enumerate() {
        for (ri, s) in p.r.tuples.iter().enumerate() {
            // prune on equality conjuncts
            let prunable = (0..p.eq_pairs.len()).any(|k| {
                !values_intersect(&p.l_poss.per_tuple[li][k], &p.r_poss.per_tuple[ri][k])
            });
            if prunable {
                continue;
            }
            emit_pair(wsd, &p.bound, &p.positions, p.larity, out, t, s, p.arity)?;
        }
    }
    Ok(())
}

/// input_l ⋈_pred input_r → out. Hash-partitioned when an equality
/// conjunct spans the two sides; nested loop otherwise.
///
/// The probe splits in two: a read-only phase that, per left tuple,
/// gathers candidate right tuples from its key buckets and prunes them
/// through the residual equality conjuncts (fanned out over `pool` —
/// this is the O(|L|) hot half), and a serial emit phase that
/// materializes the surviving pairs in left-then-right order, so the
/// output is identical to the nested-loop reference at every worker count.
pub fn join_op_in(
    wsd: &mut Wsd,
    left: &str,
    right: &str,
    pred: &Expr,
    out: &str,
    pool: &WorkerPool,
) -> Result<()> {
    let p = prepare_join(wsd, left, right, pred, out)?;
    if p.eq_pairs.is_empty() {
        return nested_scan(wsd, &p, out);
    }
    let JoinPrep { l, r, bound, positions, larity, arity, eq_pairs, l_poss, r_poss } = p;
    let (lt, rt) = (&l.tuples, &r.tuples);

    // Partition the right side on the first equality conjunct: bucket by
    // every possible non-NULL key value (index shared with the chase).
    let buckets: HashMap<Value, Vec<usize>> =
        bucket_by_possible_values(rt.len(), |ri| &r_poss.per_tuple[ri][0]);

    // Parallel probe: per left tuple, candidate right tuples in ascending
    // order, already pruned by the residual equality conjuncts.
    let cands: Vec<Vec<usize>> = pool.map(lt, |li, _| {
        let mut cand: Vec<usize> = Vec::new();
        for v in &l_poss.per_tuple[li][0] {
            if v.is_null() {
                continue;
            }
            if let Some(rs) = buckets.get(v) {
                cand.extend_from_slice(rs);
            }
        }
        cand.sort_unstable();
        cand.dedup();
        cand.retain(|&ri| {
            (1..eq_pairs.len()).all(|k| {
                values_intersect(&l_poss.per_tuple[li][k], &r_poss.per_tuple[ri][k])
            })
        });
        cand
    });

    // Serial emit, in the exact order of the sequential/nested paths.
    for (li, cand) in cands.iter().enumerate() {
        wsd.reserve_tuples(out, cand.len());
        for &ri in cand {
            emit_pair(wsd, &bound, &positions, larity, out, &lt[li], &rt[ri], arity)?;
        }
    }
    Ok(())
}

/// The nested-loop θ-join: every template-tuple pair is considered,
/// pruned only by per-pair possible-value intersection. Runs joins with
/// no cross-side equality conjunct and products; the hash-partitioned
/// path is tested against it.
pub fn join_op_nested(
    wsd: &mut Wsd,
    left: &str,
    right: &str,
    pred: &Expr,
    out: &str,
) -> Result<()> {
    let p = prepare_join(wsd, left, right, pred, out)?;
    nested_scan(wsd, &p, out)
}

/// Extracts `l = r` conjuncts referencing one column from each side,
/// returning positions in the concatenated schema (left position, right
/// position ≥ larity).
fn equality_pairs(
    pred: &Expr,
    out_schema: &maybms_relational::Schema,
    larity: usize,
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for c in pred.conjuncts() {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            if let (Expr::Col(ca), Expr::Col(cb)) = (a.as_ref(), b.as_ref()) {
                if let (Ok(pa), Ok(pb)) = (out_schema.index_of(ca), out_schema.index_of(cb)) {
                    if pa < larity && pb >= larity {
                        pairs.push((pa, pb));
                    } else if pb < larity && pa >= larity {
                        pairs.push((pb, pa));
                    }
                }
            }
        }
    }
    pairs
}

#[allow(clippy::too_many_arguments)]
fn emit_pair(
    wsd: &mut Wsd,
    bound: &maybms_relational::BoundExpr,
    positions: &[usize],
    larity: usize,
    out: &str,
    t: &TupleTemplate,
    s: &TupleTemplate,
    arity: usize,
) -> Result<()> {
    // positions referencing the left tuple map to t, the rest (shifted) to s
    let t_positions: Vec<usize> = positions.iter().copied().filter(|&p| p < larity).collect();
    let s_positions: Vec<usize> = positions
        .iter()
        .copied()
        .filter(|&p| p >= larity)
        .map(|p| p - larity)
        .collect();

    let t_open = open_fields_at(wsd, t, &t_positions)?;
    let s_open = open_fields_at(wsd, s, &s_positions)?;
    let mut known = certain_values_at(t, &t_positions);
    for (pos, v) in certain_values_at(s, &s_positions) {
        known.insert(pos + larity, v);
    }

    let new_tid = wsd.fresh_tid();
    let t_exists = exists_loc(wsd, t)?;
    let s_exists = exists_loc(wsd, s)?;

    if t_open.is_empty() && s_open.is_empty() {
        // Condition decidable statically.
        if !eval_partial(bound, arity, &known)? {
            return Ok(());
        }
        let exists = match (t_exists, s_exists) {
            (None, None) => Existence::Always,
            (Some(loc), None) | (None, Some(loc)) => {
                wsd.alias_field(Field::exists(new_tid), loc);
                Existence::Open
            }
            (Some(a), Some(b)) => {
                // conjunction of the two existence flags
                let merged = wsd.merge_components(&[a.0, b.0])?;
                let (ta, tb) = (exists_loc(wsd, t)?.expect("open"), exists_loc(wsd, s)?.expect("open")); // maybms-lint: allow(no-panic-in-prod) -- both join fields were checked open before dispatching to this kernel
                debug_assert_eq!(ta.0, merged);
                let watch = vec![ta.1, tb.1];
                add_exists_column(wsd, merged, new_tid, |row| {
                    if dead_in_row(row, &watch) {
                        Cell::Bottom
                    } else {
                        Cell::Val(Value::Bool(true))
                    }
                })?;
                Existence::Open
            }
        };
        push_pair(wsd, out, new_tid, t, s, exists)?;
        return Ok(());
    }

    // Dynamic: merge every component the condition (or existence) touches.
    let mut comps: Vec<usize> = t_open.iter().chain(s_open.iter()).map(|&(_, (c, _))| c).collect();
    if let Some((c, _)) = t_exists {
        comps.push(c);
    }
    if let Some((c, _)) = s_exists {
        comps.push(c);
    }
    let merged = wsd.merge_components(&comps)?;
    let t_open_now = open_fields_at(wsd, t, &t_positions)?;
    let s_open_now = open_fields_at(wsd, s, &s_positions)?;
    let mut watch: Vec<usize> = t_open_now
        .iter()
        .chain(s_open_now.iter())
        .map(|&(_, (_, col))| col)
        .collect();
    if let Some((c, col)) = exists_loc(wsd, t)? {
        debug_assert_eq!(c, merged);
        watch.push(col);
    }
    if let Some((c, col)) = exists_loc(wsd, s)? {
        debug_assert_eq!(c, merged);
        watch.push(col);
    }

    add_exists_column(wsd, merged, new_tid, |row| {
        if dead_in_row(row, &watch) {
            return Cell::Bottom;
        }
        let mut vals = known.clone();
        for &(pos, (_, col)) in &t_open_now {
            match row.cell(col) {
                Cell::Val(v) => {
                    vals.insert(pos, v.clone());
                }
                Cell::Bottom => return Cell::Bottom,
            }
        }
        for &(pos, (_, col)) in &s_open_now {
            match row.cell(col) {
                Cell::Val(v) => {
                    vals.insert(pos + larity, v.clone());
                }
                Cell::Bottom => return Cell::Bottom,
            }
        }
        match eval_partial(bound, arity, &vals) {
            Ok(true) => Cell::Val(Value::Bool(true)),
            _ => Cell::Bottom,
        }
    })?;
    push_pair(wsd, out, new_tid, t, s, Existence::Open)?;
    Ok(())
}

fn push_pair(
    wsd: &mut Wsd,
    out: &str,
    new_tid: crate::field::Tid,
    t: &TupleTemplate,
    s: &TupleTemplate,
    exists: Existence,
) -> Result<()> {
    let t_id: Vec<usize> = (0..t.cells.len()).collect();
    let mut cells = alias_cells(wsd, new_tid, t, &t_id)?;
    // right cells continue at position offset
    for (j, cell) in s.cells.iter().enumerate() {
        let new_pos = t.cells.len() + j;
        match cell {
            crate::wsd::TemplateCell::Certain(v) => {
                cells.push(crate::wsd::TemplateCell::Certain(v.clone()))
            }
            crate::wsd::TemplateCell::Open => {
                let loc = wsd
                    .field_loc(Field::attr(s.tid, j as u32))
                    .ok_or_else(|| {
                        maybms_relational::Error::InvalidExpr(format!(
                            "unmapped field {}.#{j}",
                            s.tid
                        ))
                    })?;
                wsd.alias_field(Field::attr(new_tid, new_pos as u32), loc);
                cells.push(crate::wsd::TemplateCell::Open);
            }
        }
    }
    wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::WorkerPool;
    use crate::wsd::Wsd;
    use maybms_relational::{ColumnType, Expr, Schema, Value};
    use maybms_worldset::eval::eval_in_all_worlds;
    use maybms_worldset::OrSetCell;

    fn two_rel_wsd() -> Wsd {
        let mut w = Wsd::new();
        w.add_relation(
            "patients",
            Schema::new(vec![("name", ColumnType::Str), ("diag", ColumnType::Str)]),
        )
        .unwrap();
        w.add_relation(
            "treats",
            Schema::new(vec![("d", ColumnType::Str), ("drug", ColumnType::Str)]),
        )
        .unwrap();
        w.push_orset(
            "patients",
            vec![
                OrSetCell::certain("ann"),
                OrSetCell::weighted(vec![
                    (Value::str("flu"), 0.3),
                    (Value::str("cold"), 0.7),
                ])
                .unwrap(),
            ],
        )
        .unwrap();
        w.push_certain("patients", vec![Value::str("bob"), Value::str("flu")])
            .unwrap();
        w.push_certain("treats", vec![Value::str("flu"), Value::str("oseltamivir")])
            .unwrap();
        w.push_orset(
            "treats",
            vec![
                OrSetCell::certain("cold"),
                OrSetCell::uniform(vec![Value::str("rest"), Value::str("tea")]).unwrap(),
            ],
        )
        .unwrap();
        w
    }

    fn check_against_oracle(q: &Query, wsd: &Wsd) {
        let lhs = q.eval(wsd).unwrap().to_worldset(100_000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(100_000).unwrap(), &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    /// The hash-partitioned path must produce a world-set equivalent to the
    /// nested-loop reference on the same inputs.
    fn check_hash_equals_nested(wsd: &Wsd, pred: &Expr) {
        let mut hash = wsd.clone();
        let seq = WorkerPool::sequential();
        super::join_op_in(&mut hash, "patients", "treats", pred, "out", seq).unwrap();
        let mut nested = wsd.clone();
        super::join_op_nested(&mut nested, "patients", "treats", pred, "out").unwrap();
        let a = crate::algebra::extract(hash, "out", "result").unwrap();
        let b = crate::algebra::extract(nested, "out", "result").unwrap();
        assert!(a
            .to_worldset(100_000)
            .unwrap()
            .equivalent(&b.to_worldset(100_000).unwrap(), 1e-9));
    }

    #[test]
    fn equi_join_matches_oracle() {
        let wsd = two_rel_wsd();
        let q = Query::table("patients").join(
            Query::table("treats"),
            Expr::col("diag").eq(Expr::col("d")),
        );
        check_against_oracle(&q, &wsd);
    }

    #[test]
    fn hash_path_equals_nested_loop() {
        let wsd = two_rel_wsd();
        check_hash_equals_nested(&wsd, &Expr::col("diag").eq(Expr::col("d")));
        check_hash_equals_nested(
            &wsd,
            &Expr::col("diag")
                .eq(Expr::col("d"))
                .and(Expr::col("name").ne(Expr::col("drug"))),
        );
    }

    #[test]
    fn product_matches_oracle() {
        let wsd = two_rel_wsd();
        let q = Query::table("patients").product(Query::table("treats"));
        check_against_oracle(&q, &wsd);
    }

    #[test]
    fn self_join_preserves_correlation() {
        let wsd = two_rel_wsd();
        // joining patients with itself on diag: ann's uncertain diagnosis
        // must agree with itself (no spurious flu-cold combination).
        let q = Query::table("patients").qualify("a").join(
            Query::table("patients").qualify("b"),
            Expr::col("a.diag").eq(Expr::col("b.diag")),
        );
        check_against_oracle(&q, &wsd);
    }

    #[test]
    fn join_after_selection() {
        let wsd = two_rel_wsd();
        let q = Query::table("patients")
            .select(Expr::col("diag").eq(Expr::lit("flu")))
            .join(Query::table("treats"), Expr::col("diag").eq(Expr::col("d")));
        check_against_oracle(&q, &wsd);
    }

    #[test]
    fn non_equi_join_matches_oracle() {
        let wsd = two_rel_wsd();
        let q = Query::table("patients").join(
            Query::table("treats"),
            Expr::col("name").lt(Expr::col("drug")),
        );
        check_against_oracle(&q, &wsd);
    }

    #[test]
    fn join_prunes_disjoint_domains() {
        let wsd = two_rel_wsd();
        let q = Query::table("patients").join(
            Query::table("treats"),
            Expr::col("diag").eq(Expr::col("drug")), // domains disjoint
        );
        let out = q.eval(&wsd).unwrap();
        assert_eq!(out.relation("result").unwrap().tuples.len(), 0);
        check_against_oracle(&q, &wsd);
    }
}
