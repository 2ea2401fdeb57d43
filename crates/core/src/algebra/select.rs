//! Selection on decompositions.
//!
//! For each template tuple, the predicate is either settled — the same in
//! every world, decided on the fields' possible values ([`settled`]) —
//! or depends on component choices. In the latter case the decision
//! kernel ([`Reads`]) merges the components carrying the referenced
//! fields, and the result tuple's existence column marks failing rows
//! with ⊥ — the paper's "replace the values different
//! from 'pregnancy' by ⊥", expressed on the hidden existence field so that
//! later projections cannot lose it.

use maybms_relational::{Expr, Result, Tuple};

use crate::field::Field;
use crate::wsd::{Existence, TupleTemplate, Wsd};

use super::common::{
    alias_cells, bind_pred, emit_passthrough, exists_cell, settled, snapshot, Part, Reads,
};

/// σ_pred(input) → out.
pub fn select_op(wsd: &mut Wsd, input: &str, pred: &Expr, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    let (bound, positions) = bind_pred(pred, &input.schema)?;
    wsd.add_relation(out, input.schema.clone())?;

    let mut buf = Tuple::new(Vec::new());
    for t in &input.tuples {
        let part = [Part::new(t, &positions, 0)];
        match settled(wsd, &part, &mut buf, |row| bound.eval_predicate(row))? {
            Some(true) => emit_passthrough(wsd, t, out)?,
            Some(false) => {}
            None => {
                let new_tid = wsd.fresh_tid();
                Reads::merge(wsd, &part)?.write_column(wsd, Field::exists(new_tid), |row| {
                    Ok(exists_cell(bound.eval_predicate(row.vals)?))
                })?;
                let cells = alias_cells(wsd, new_tid, t, 0..t.cells.len(), 0)?.into();
                let exists = Existence::Open;
                wsd.push_template(out, TupleTemplate { tid: new_tid, cells, exists })?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::eval;
    use crate::examples::medical_wsd;
    use crate::wsd::Wsd;
    use maybms_relational::{BinOp, ColumnType, Expr, Schema, Value};
    use maybms_worldset::eval::eval_in_all_worlds;
    use maybms_worldset::OrSetCell;

    /// The paper's query: `select Test from R where Diagnosis='pregnancy'`.
    /// Running it on the WSD and enumerating must equal enumerating and
    /// running it per world.
    #[test]
    fn paper_selection_matches_world_semantics() {
        let wsd = medical_wsd();
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
            .project(["test"]);

        let on_wsd = eval(&q, &wsd).unwrap();
        on_wsd.validate().unwrap();
        let lhs = on_wsd.to_worldset(1000).unwrap();

        let worlds = wsd.to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&worlds, &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn static_selection_drops_certain_tuples() {
        let wsd = medical_wsd();
        // r2 is certain obesity: selecting obesity keeps it in every world
        let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("obesity")));
        let out = eval(&q, &wsd).unwrap();
        let ws = out.to_worldset(1000).unwrap();
        for (w, _) in ws.worlds() {
            assert_eq!(w.get("result").unwrap().canonical().len(), 1);
        }
    }

    #[test]
    fn selection_on_symptom_spans_one_component() {
        let wsd = medical_wsd();
        let q = Query::table("R").select(Expr::col("symptom").eq(Expr::lit("fatigue")));
        let out = eval(&q, &wsd).unwrap();
        let lhs = out.to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q).unwrap();
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
        let out = eval(&q, &wsd).unwrap();
        out.validate().unwrap();
        let lhs = out.to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    /// Settling enumerates combinations of possible values, some of which
    /// occur only where the tuple is absent (here `a = b`, filtered out by
    /// the first selection): an error there falls back to the kernel,
    /// which does not abort.
    #[test]
    fn error_only_where_the_tuple_is_absent_does_not_abort() {
        let mut w = Wsd::new();
        w.add_relation("t", Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]))
            .unwrap();
        let bit = || OrSetCell::uniform(vec![Value::Int(0), Value::Int(1)]).unwrap();
        w.push_orset("t", vec![bit(), bit()]).unwrap();
        let diff = Expr::Bin(BinOp::Sub, Box::new(Expr::col("a")), Box::new(Expr::col("b")));
        let quot = Expr::Bin(BinOp::Div, Box::new(Expr::lit(12i64)), Box::new(diff));
        let q = Query::table("t")
            .select(Expr::col("a").ne(Expr::col("b")))
            .select(quot.gt(Expr::lit(0i64)));
        let lhs = eval(&q, &w).unwrap().to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&w.to_worldset(1000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn empty_selection_yields_empty_worlds() {
        let wsd = medical_wsd();
        let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("nonexistent")));
        let out = eval(&q, &wsd).unwrap();
        let ws = out.to_worldset(1000).unwrap();
        for (w, _) in ws.worlds() {
            assert!(w.get("result").unwrap().is_empty());
        }
    }
}
