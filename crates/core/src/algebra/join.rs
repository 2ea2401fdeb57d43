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

use maybms_relational::{BoundExpr, CmpOp, Expr, Result, Schema, Tuple, Value};

use crate::field::{Field, Tid};
use crate::wsd::{Existence, RelTemplate, TupleTemplate, Wsd};

use super::common::{
    alias_cells, bind_pred, bucket_by_possible_values, exists_cell, inherit_exists,
    possible_values_of, settled, snapshot, values_intersect, Part, Reads,
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
    tuples: &[TupleTemplate],
    positions: impl Fn(usize) -> usize + Copy,
    npairs: usize,
) -> Result<SidePoss> {
    let mut per_tuple = Vec::with_capacity(tuples.len());
    for t in tuples {
        let mut per = Vec::with_capacity(npairs);
        for k in 0..npairs {
            per.push(possible_values_of(wsd, t, positions(k))?);
        }
        per_tuple.push(per);
    }
    Ok(SidePoss { per_tuple })
}

/// Inputs every join strategy needs, snapshotted and bound exactly once.
struct JoinPrep {
    l: Arc<RelTemplate>,
    r: Arc<RelTemplate>,
    bound: BoundExpr,
    /// The predicate's positions in the left tuple and (shifted down by
    /// `larity`) in the right one.
    l_positions: Vec<usize>,
    r_positions: Vec<usize>,
    larity: usize,
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
    let (l_positions, r_positions): (Vec<usize>, Vec<usize>) =
        positions.iter().partition(|&&p| p < larity);
    let r_positions = r_positions.into_iter().map(|p| p - larity).collect();
    wsd.add_relation(out, out_schema)?;
    let l_poss = side_poss(wsd, &l.tuples, |k| eq_pairs[k].0, eq_pairs.len())?;
    let r_poss = side_poss(wsd, &r.tuples, |k| eq_pairs[k].1 - larity, eq_pairs.len())?;
    Ok(JoinPrep { l, r, bound, l_positions, r_positions, larity, eq_pairs, l_poss, r_poss })
}

/// The nested-loop pair scan shared by both entry points.
fn nested_scan(wsd: &mut Wsd, p: &JoinPrep, out: &str) -> Result<()> {
    let mut buf = Tuple::new(Vec::new());
    for (li, t) in p.l.tuples.iter().enumerate() {
        for (ri, s) in p.r.tuples.iter().enumerate() {
            // prune on equality conjuncts
            let prunable = (0..p.eq_pairs.len()).any(|k| {
                !values_intersect(&p.l_poss.per_tuple[li][k], &p.r_poss.per_tuple[ri][k])
            });
            if prunable {
                continue;
            }
            emit_pair(wsd, p, out, t, s, &mut buf)?;
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
    let (lt, rt) = (&p.l.tuples, &p.r.tuples);
    let (eq_pairs, l_poss, r_poss) = (&p.eq_pairs, &p.l_poss, &p.r_poss);

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
    let mut buf = Tuple::new(Vec::new());
    for (li, cand) in cands.iter().enumerate() {
        wsd.reserve_tuples(out, cand.len());
        for &ri in cand {
            emit_pair(wsd, &p, out, &lt[li], &rt[ri], &mut buf)?;
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
/// position ≥ larity). The first pair is the hash key — the one join-key
/// rule, which `EXPLAIN` and the estimator read through
/// [`crate::exec::plan`]'s `join_key`.
pub(crate) fn equality_pairs(
    pred: &Expr,
    out_schema: &Schema,
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

/// Emits the pair `(t, s)` unless its condition fails in every world. A
/// condition true in every world leaves existence the conjunction of the
/// two ∃ fields, which needs a merge only when both are open.
fn emit_pair(
    wsd: &mut Wsd,
    p: &JoinPrep,
    out: &str,
    t: &TupleTemplate,
    s: &TupleTemplate,
    buf: &mut Tuple,
) -> Result<()> {
    let parts = [Part::new(t, &p.l_positions, 0), Part::new(s, &p.r_positions, p.larity)];
    let new_tid = wsd.fresh_tid();
    let exists = match settled(wsd, &parts, buf, |row| p.bound.eval_predicate(row))? {
        Some(false) => return Ok(()),
        Some(true) if t.exists == Existence::Always => inherit_exists(wsd, s, new_tid)?,
        Some(true) if s.exists == Existence::Always => inherit_exists(wsd, t, new_tid)?,
        Some(true) => {
            let both = [Part::new(t, &[], 0), Part::new(s, &[], p.larity)];
            let mut reads = Reads::merge(wsd, &both)?;
            reads.write_column(wsd, Field::exists(new_tid), |_| Ok(exists_cell(true)))?;
            Existence::Open
        }
        None => {
            Reads::merge(wsd, &parts)?.write_column(wsd, Field::exists(new_tid), |row| {
                Ok(exists_cell(p.bound.eval_predicate(row.vals)?))
            })?;
            Existence::Open
        }
    };
    push_pair(wsd, out, new_tid, t, s, exists)
}

fn push_pair(
    wsd: &mut Wsd,
    out: &str,
    new_tid: Tid,
    t: &TupleTemplate,
    s: &TupleTemplate,
    exists: Existence,
) -> Result<()> {
    let mut cells = alias_cells(wsd, new_tid, t, 0..t.cells.len(), 0)?;
    cells.extend(alias_cells(wsd, new_tid, s, 0..s.cells.len(), t.cells.len())?);
    // The pair is absent where either side is, so a component both sides
    // read may normalize further once they are gone. Aliasing marks no
    // component (`Wsd`'s "The dirty set"), so mark those the pair reads.
    let fields = (0..cells.len() as u32).map(|pos| Field::attr(new_tid, pos));
    for f in fields.chain([Field::exists(new_tid)]) {
        if let Some((c, _)) = wsd.field_loc(f) {
            wsd.mark_dirty(c);
        }
    }
    wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::eval;
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
        let lhs = eval(q, wsd).unwrap().to_worldset(100_000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(100_000).unwrap(), q).unwrap();
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

    /// A pair is absent where either side is. Where both sides read one
    /// component, the answer must still come out normalized.
    #[test]
    fn pair_over_a_shared_component_is_normalized() {
        use crate::algebra::delete_op;
        use crate::chase::{clean, Constraint};
        use crate::codec::encode_wsd;
        use crate::normalize::normalize_from_scratch;
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]))
            .unwrap();
        for b in [5i64, 6] {
            let a = OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap();
            w.push_orset("r", vec![a, OrSetCell::certain(b)]).unwrap();
        }
        // one component holds both tuples' `a`, and the second's ∃ field
        clean(&mut w, &[Constraint::fd("r", &["a"], &["b"])]).unwrap();
        let del = Expr::col("b").eq(Expr::lit(6i64)).and(Expr::col("a").eq(Expr::lit(1i64)));
        delete_op(&mut w, "r", Some(&del)).unwrap();
        let on_b = Expr::col("x.b").eq(Expr::lit(5i64)).and(Expr::col("y.b").eq(Expr::lit(6i64)));
        let q = Query::table("r").qualify("x").join(Query::table("r").qualify("y"), on_b);
        let got = eval(&q, &w).unwrap();
        let mut full = got.clone();
        normalize_from_scratch(&mut full);
        assert_eq!(encode_wsd(&got), encode_wsd(&full));
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
        let out = eval(&q, &wsd).unwrap();
        assert_eq!(out.relation("result").unwrap().tuples.len(), 0);
        check_against_oracle(&q, &wsd);
    }
}
