//! Set difference on decompositions.
//!
//! `t ∈ (L − R)` in a world iff `t` exists there and no tuple of `R` with
//! the same values exists there. Difference is the hardest operator on
//! compressed world-sets (it compares *across* tuples), so the
//! implementation prunes aggressively: only right tuples whose possible
//! values overlap `t`'s on every column are considered, and only the
//! components those candidates actually touch are merged.

use maybms_relational::{Result, Value};

use crate::field::Field;
use crate::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};

use super::common::{
    alias_cells, exists_cell, inherit_exists, possible_values_of, snapshot, values_intersect,
    varies, Part, Reads,
};

/// input_l − input_r → out.
pub fn difference_op(wsd: &mut Wsd, left: &str, right: &str, out: &str) -> Result<()> {
    let (l, r) = (snapshot(wsd, left)?, snapshot(wsd, right)?);
    l.schema.union_compatible(&r.schema)?;
    let arity = l.schema.len();
    wsd.add_relation(out, l.schema.clone())?;
    let (lt, rt) = (&l.tuples, &r.tuples);
    let all: Vec<usize> = (0..arity).collect();

    // possible values per right tuple per column (for pruning)
    let mut r_poss: Vec<Vec<Vec<Value>>> = Vec::with_capacity(rt.len());
    for s in rt {
        let mut cols = Vec::with_capacity(arity);
        for pos in 0..arity {
            cols.push(possible_values_of(wsd, s, pos)?);
        }
        r_poss.push(cols);
    }

    for t in lt {
        let mut t_poss: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for pos in 0..arity {
            t_poss.push(possible_values_of(wsd, t, pos)?);
        }
        // candidate right tuples: overlap on every column
        let candidates: Vec<&TupleTemplate> = rt
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                (0..arity).all(|pos| values_intersect(&t_poss[pos], &r_poss[*i][pos]))
            })
            .map(|(_, s)| s)
            .collect();

        let new_tid = wsd.fresh_tid();

        // Fully static case: t certain & always exists, and some candidate
        // certain & always exists with equal values ⇒ t never survives.
        let t_all_certain = t
            .cells
            .iter()
            .all(|c| matches!(c, TemplateCell::Certain(_)));
        if t_all_certain && t.exists == Existence::Always {
            let killed = candidates.iter().any(|s| {
                s.exists == Existence::Always
                    && s.cells.iter().zip(t.cells.iter()).all(|(a, b)| match (a, b) {
                        (TemplateCell::Certain(x), TemplateCell::Certain(y)) => x == y,
                        _ => false,
                    })
            });
            if killed {
                continue;
            }
        }

        // t, then each candidate: t is shadowed in a row where an equal
        // candidate exists.
        let parts: Vec<Part> = std::iter::once(Part::new(t, &all, 0))
            .chain(candidates.iter().enumerate().map(|(i, s)| {
                Part::new(s, &all, (i + 1) * arity).optional()
            }))
            .collect();
        if candidates.is_empty() || !varies(&parts) {
            // no right tuple can ever equal t, or none varies by world
            // (and the values differ, checked above): u is just t
            let cells = alias_cells(wsd, new_tid, t, 0..arity, 0)?;
            let exists = inherit_exists(wsd, t, new_tid)?;
            wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })?;
            continue;
        }
        Reads::merge(wsd, &parts)?.write_column(wsd, Field::exists(new_tid), |row| {
            let vals = |i: usize| &row.vals.values()[i * arity..(i + 1) * arity];
            let shadowed = (1..row.live.len()).any(|i| row.live[i] && vals(i) == vals(0));
            Ok(exists_cell(!shadowed))
        })?;
        let cells = alias_cells(wsd, new_tid, t, 0..arity, 0)?;
        wsd.push_template(
            out,
            TupleTemplate { tid: new_tid, cells: cells.into(), exists: Existence::Open },
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::eval;
    use crate::wsd::Wsd;
    use maybms_relational::{ColumnType, Expr, Schema, Value};
    use maybms_worldset::eval::eval_in_all_worlds;
    use maybms_worldset::OrSetCell;

    fn wsd() -> Wsd {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.add_relation("s", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_orset(
            "r",
            vec![OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap()],
        )
        .unwrap();
        w.push_certain("r", vec![Value::Int(3)]).unwrap();
        w.push_orset(
            "s",
            vec![OrSetCell::weighted(vec![(Value::Int(2), 0.4), (Value::Int(3), 0.6)]).unwrap()],
        )
        .unwrap();
        w
    }

    fn check(q: &Query, w: &Wsd) {
        let lhs = eval(q, w).unwrap().to_worldset(100_000).unwrap();
        let rhs = eval_in_all_worlds(&w.to_worldset(100_000).unwrap(), q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn difference_matches_oracle() {
        let w = wsd();
        check(&Query::table("r").difference(Query::table("s")), &w);
    }

    #[test]
    fn difference_with_self_is_empty() {
        let w = wsd();
        let q = Query::table("r").difference(Query::table("r"));
        let out = eval(&q, &w).unwrap();
        let ws = out.to_worldset(1000).unwrap();
        for (world, _) in ws.worlds() {
            assert!(world.get("result").unwrap().is_empty());
        }
    }

    #[test]
    fn difference_after_selection() {
        let w = wsd();
        let q = Query::table("r")
            .difference(Query::table("s").select(Expr::col("a").gt(Expr::lit(2i64))));
        check(&q, &w);
    }

    #[test]
    fn difference_static_kill() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.add_relation("s", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_certain("r", vec![Value::Int(1)]).unwrap();
        w.push_certain("r", vec![Value::Int(2)]).unwrap();
        w.push_certain("s", vec![Value::Int(1)]).unwrap();
        let q = Query::table("r").difference(Query::table("s"));
        let out = eval(&q, &w).unwrap();
        let ws = out.to_worldset(10).unwrap();
        assert_eq!(ws.worlds()[0].0.get("result").unwrap().canonical().len(), 1);
        check(&q, &w);
    }

    #[test]
    fn incompatible_schemas_error() {
        let mut w = wsd();
        w.add_relation("t", Schema::new(vec![("b", ColumnType::Str)])).unwrap();
        assert!(eval(&Query::table("r").difference(Query::table("t")), &w).is_err());
    }
}
