//! Selection on decompositions.
//!
//! For each template tuple, the predicate is either decidable statically
//! (all referenced fields certain) or depends on component choices. In the
//! latter case the components carrying the referenced fields are merged and
//! the result tuple's existence column marks failing rows with ⊥ — the
//! paper's "replace the values different from 'pregnancy' by ⊥", expressed
//! on the hidden existence field so that later projections cannot lose it.

use maybms_relational::{BoundExpr, Expr, Result, Value};

use crate::cell::Cell;
use crate::wsd::{Existence, TupleTemplate, Wsd};

use super::common::{
    add_exists_column, alias_cells, bind_pred, certain_values_at, dead_in_row, emit_passthrough,
    eval_partial, exists_loc, open_fields_at, snapshot,
};

/// σ_pred(input) → out.
pub fn select_op(wsd: &mut Wsd, input: &str, pred: &Expr, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    let (bound, positions) = bind_pred(pred, &input.schema)?;
    wsd.add_relation(out, input.schema.clone())?;
    let arity = input.schema.len();

    for t in &input.tuples {
        let open = open_fields_at(wsd, t, &positions)?;
        if open.is_empty() {
            // Static decision.
            let known = certain_values_at(t, &positions);
            if !eval_partial(&bound, arity, &known)? {
                continue;
            }
            emit_passthrough(wsd, t, out)?;
        } else {
            select_tuple_dynamic(wsd, t, &bound, &positions, arity, out)?;
        }
    }
    Ok(())
}

/// The per-tuple dynamic path of selection: the predicate references open
/// fields, so the components carrying them (and the tuple's existence
/// field, if open) are merged and a fresh existence column marks failing
/// rows ⊥.
fn select_tuple_dynamic(
    wsd: &mut Wsd,
    t: &TupleTemplate,
    bound: &BoundExpr,
    positions: &[usize],
    arity: usize,
    out: &str,
) -> Result<()> {
    let open = open_fields_at(wsd, t, positions)?;
    let known = certain_values_at(t, positions);
    let new_tid = wsd.fresh_tid();
    let identity: Vec<usize> = (0..arity).collect();

    // Merge the components carrying the open predicate fields (and the
    // tuple's existence field, if open).
    let mut comp_set: Vec<usize> = open.iter().map(|&(_, (c, _))| c).collect();
    if let Some((c, _)) = exists_loc(wsd, t)? {
        comp_set.push(c);
    }
    let merged = wsd.merge_components(&comp_set)?;
    // Re-resolve columns after the merge.
    let open_now = open_fields_at(wsd, t, positions)?;
    let mut watch_cols: Vec<usize> = open_now.iter().map(|&(_, (_, col))| col).collect();
    if let Some((c, col)) = exists_loc(wsd, t)? {
        debug_assert_eq!(c, merged);
        watch_cols.push(col);
    }

    add_exists_column(wsd, merged, new_tid, |row| {
        if dead_in_row(row, &watch_cols) {
            return Cell::Bottom;
        }
        let mut vals = known.clone();
        for &(pos, (_, col)) in &open_now {
            match row.cell(col) {
                Cell::Val(v) => {
                    vals.insert(pos, v.clone());
                }
                Cell::Bottom => return Cell::Bottom,
            }
        }
        match eval_partial(bound, arity, &vals) {
            Ok(true) => Cell::Val(Value::Bool(true)),
            _ => Cell::Bottom,
        }
    })?;

    let cells = alias_cells(wsd, new_tid, t, &identity)?;
    wsd.push_template(
        out,
        TupleTemplate { tid: new_tid, cells: cells.into(), exists: Existence::Open },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    
    use crate::algebra::Query;
    use crate::examples::medical_wsd;
    use maybms_relational::Expr;
    use maybms_worldset::eval::eval_in_all_worlds;

    /// The paper's query: `select Test from R where Diagnosis='pregnancy'`.
    /// Running it on the WSD and enumerating must equal enumerating and
    /// running it per world.
    #[test]
    fn paper_selection_matches_world_semantics() {
        let wsd = medical_wsd();
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
            .project(["test"]);

        let on_wsd = q.eval(&wsd).unwrap();
        on_wsd.validate().unwrap();
        let lhs = on_wsd.to_worldset(1000).unwrap();

        let worlds = wsd.to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&worlds, &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn static_selection_drops_certain_tuples() {
        let wsd = medical_wsd();
        // r2 is certain obesity: selecting obesity keeps it in every world
        let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("obesity")));
        let out = q.eval(&wsd).unwrap();
        let ws = out.to_worldset(1000).unwrap();
        for (w, _) in ws.worlds() {
            assert_eq!(w.get("result").unwrap().canonical().len(), 1);
        }
    }

    #[test]
    fn selection_on_symptom_spans_one_component() {
        let wsd = medical_wsd();
        let q = Query::table("R").select(Expr::col("symptom").eq(Expr::lit("fatigue")));
        let out = q.eval(&wsd).unwrap();
        let lhs = out.to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn conjunctive_predicate_spanning_components_merges_them() {
        let wsd = medical_wsd();
        // diagnosis and symptom live in different components for r1
        let q = Query::table("R").select(
            Expr::col("diagnosis")
                .eq(Expr::lit("pregnancy"))
                .and(Expr::col("symptom").eq(Expr::lit("weight gain"))),
        );
        let out = q.eval(&wsd).unwrap();
        out.validate().unwrap();
        let lhs = out.to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn empty_selection_yields_empty_worlds() {
        let wsd = medical_wsd();
        let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("nonexistent")));
        let out = q.eval(&wsd).unwrap();
        let ws = out.to_worldset(1000).unwrap();
        for (w, _) in ws.worlds() {
            assert!(w.get("result").unwrap().is_empty());
        }
    }
}
