//! Set difference on decompositions.
//!
//! `t ∈ (L − R)` in a world iff `t` exists there and no tuple of `R` with
//! the same values exists there. Difference is the hardest operator on
//! compressed world-sets (it compares *across* tuples), so the
//! implementation prunes aggressively: only right tuples whose possible
//! values overlap `t`'s on every column are considered, and only the
//! components those candidates actually touch are merged.

use std::sync::Arc;

use maybms_relational::{Result, Value};

use crate::cell::Cell;
use crate::field::Field;
use crate::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};

use super::common::{
    add_exists_column, alias_cells, all_open_fields, dead_in_row, exists_loc, possible_values_of,
    snapshot, values_intersect,
};

/// input_l − input_r → out.
pub fn difference_op(wsd: &mut Wsd, left: &str, right: &str, out: &str) -> Result<()> {
    let (l, r) = (snapshot(wsd, left)?, snapshot(wsd, right)?);
    l.schema.union_compatible(&r.schema)?;
    let arity = l.schema.len();
    wsd.add_relation(out, l.schema.clone())?;
    let (lt, rt) = (&l.tuples, &r.tuples);

    // possible values per right tuple per column (for pruning)
    let mut r_poss: Vec<Vec<Vec<Value>>> = Vec::with_capacity(rt.len());
    for s in rt {
        let mut cols = Vec::with_capacity(arity);
        for pos in 0..arity {
            cols.push(possible_values_of(wsd, right, s, pos)?);
        }
        r_poss.push(cols);
    }

    for t in lt {
        let mut t_poss: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for pos in 0..arity {
            t_poss.push(possible_values_of(wsd, left, t, pos)?);
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
        let identity: Vec<usize> = (0..arity).collect();

        if candidates.is_empty() {
            // no right tuple can ever equal t: u is just t
            let cells = alias_cells(wsd, new_tid, t, &identity)?;
            let exists = match exists_loc(wsd, t)? {
                None => Existence::Always,
                Some(loc) => {
                    wsd.alias_field(Field::exists(new_tid), loc);
                    Existence::Open
                }
            };
            wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })?;
            continue;
        }

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

        // Dynamic: merge everything t and the candidates depend on.
        let mut comps: Vec<usize> = Vec::new();
        for &(_, (c, _)) in &all_open_fields(wsd, t)? {
            comps.push(c);
        }
        if let Some((c, _)) = exists_loc(wsd, t)? {
            comps.push(c);
        }
        for s in &candidates {
            for &(_, (c, _)) in &all_open_fields(wsd, s)? {
                comps.push(c);
            }
            if let Some((c, _)) = exists_loc(wsd, s)? {
                comps.push(c);
            }
        }
        if comps.is_empty() {
            // t and all candidates certain, but values differ (checked
            // above) ⇒ t survives unconditionally.
            let cells = alias_cells(wsd, new_tid, t, &identity)?;
            wsd.push_template(
                out,
                TupleTemplate { tid: new_tid, cells: cells.into(), exists: Existence::Always },
            )?;
            continue;
        }
        let merged = wsd.merge_components(&comps)?;

        // Resolve per-row value accessors after the merge.
        let t_open = all_open_fields(wsd, t)?;
        let mut t_watch: Vec<usize> = t_open.iter().map(|&(_, (_, col))| col).collect();
        if let Some((c, col)) = exists_loc(wsd, t)? {
            debug_assert_eq!(c, merged);
            t_watch.push(col);
        }
        struct Cand {
            cells: Arc<[TemplateCell]>,
            open: Vec<(usize, usize)>, // (position, merged column)
            watch: Vec<usize>,
        }
        let mut cands: Vec<Cand> = Vec::with_capacity(candidates.len());
        for s in &candidates {
            let open: Vec<(usize, usize)> = all_open_fields(wsd, s)?
                .into_iter()
                .map(|(pos, (_, col))| (pos, col))
                .collect();
            let mut watch: Vec<usize> = open.iter().map(|&(_, col)| col).collect();
            if let Some((c, col)) = exists_loc(wsd, s)? {
                debug_assert_eq!(c, merged);
                watch.push(col);
            }
            cands.push(Cand { cells: s.cells.clone(), open, watch });
        }
        let t_cells = t.cells.clone();
        let t_open_cols: Vec<(usize, usize)> =
            t_open.iter().map(|&(pos, (_, col))| (pos, col)).collect();

        add_exists_column(wsd, merged, new_tid, move |row| {
            if dead_in_row(row, &t_watch) {
                return Cell::Bottom;
            }
            // materialize t's values in this row
            let mut tv: Vec<Value> = Vec::with_capacity(arity);
            for (pos, cell) in t_cells.iter().enumerate() {
                match cell {
                    TemplateCell::Certain(v) => tv.push(v.clone()),
                    TemplateCell::Open => {
                        let col = t_open_cols
                            .iter()
                            .find(|&&(p, _)| p == pos)
                            .map(|&(_, c)| c)
                            .expect("open field resolved"); // maybms-lint: allow(no-panic-in-prod) -- the field was verified to resolve to an open position earlier in this pass; a miss is a broken rewrite invariant
                        match row.cell(col) {
                            Cell::Val(v) => tv.push(v.clone()),
                            Cell::Bottom => return Cell::Bottom,
                        }
                    }
                }
            }
            // does any candidate exist with equal values?
            'cands: for cand in &cands {
                if dead_in_row(row, &cand.watch) {
                    continue;
                }
                for (pos, cell) in cand.cells.iter().enumerate() {
                    let sv = match cell {
                        TemplateCell::Certain(v) => v.clone(),
                        TemplateCell::Open => {
                            let col = cand
                                .open
                                .iter()
                                .find(|&&(p, _)| p == pos)
                                .map(|&(_, c)| c)
                                .expect("open field resolved"); // maybms-lint: allow(no-panic-in-prod) -- the field was verified to resolve to an open position earlier in this pass; a miss is a broken rewrite invariant
                            match row.cell(col) {
                                Cell::Val(v) => v.clone(),
                                Cell::Bottom => continue 'cands,
                            }
                        }
                    };
                    if sv != tv[pos] {
                        continue 'cands;
                    }
                }
                return Cell::Bottom; // shadowed by an existing equal tuple
            }
            Cell::Val(Value::Bool(true))
        })?;
        let cells = alias_cells(wsd, new_tid, t, &identity)?;
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
        let lhs = q.eval(w).unwrap().to_worldset(100_000).unwrap();
        let rhs = eval_in_all_worlds(&w.to_worldset(100_000).unwrap(), &q.to_world_query()).unwrap();
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
        let out = q.eval(&w).unwrap();
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
        let out = q.eval(&w).unwrap();
        let ws = out.to_worldset(10).unwrap();
        assert_eq!(ws.worlds()[0].0.get("result").unwrap().canonical().len(), 1);
        check(&q, &w);
    }

    #[test]
    fn incompatible_schemas_error() {
        let mut w = wsd();
        w.add_relation("t", Schema::new(vec![("b", ColumnType::Str)])).unwrap();
        assert!(Query::table("r")
            .difference(Query::table("t"))
            .eval(&w)
            .is_err());
    }
}
