//! DML on stored decompositions: `DELETE` and `UPDATE` with world-set
//! semantics.
//!
//! Both operators evaluate their predicate *per possible tuple, per
//! world* (paper §2 semantics) without enumerating worlds:
//!
//! * a tuple whose predicate is **certain** (all referenced fields
//!   inline) is edited or removed in the template directly — it changes
//!   in every world at once;
//! * a tuple whose predicate depends on component choices is replaced by
//!   a derived template tuple whose fields alias the original columns,
//!   with the decision materialized in the components: `DELETE` appends a
//!   fresh existence column that is ⊥ exactly in the rows where the
//!   predicate holds (the tuple keeps existing in the other worlds);
//!   `UPDATE` appends one fresh value column per assigned field holding
//!   the new value where the predicate holds and the old value elsewhere.
//!
//! Crucially — and unlike [`crate::chase`], which *removes worlds* and
//! renormalizes — DML never touches row probabilities: every world
//! survives with its original probability, only its tuples change. The
//! certain/possible corner cases follow from this: a tuple that
//! *certainly* matches a `DELETE` predicate disappears from every world;
//! one that only *possibly* matches survives exactly in the worlds where
//! the predicate is false (its confidence drops accordingly); one that
//! certainly fails the predicate is untouched, bit for bit.
//!
//! Assigned `UPDATE` values are certain scalars; predicates see the
//! pre-update values (standard SQL), which holds by construction because
//! new columns are computed from the old ones before any field is
//! remapped.
//!
//! A predicate that fails to evaluate (arithmetic error) in **any world
//! where the tuple exists** aborts the whole statement, exactly like the
//! enumerate-all-worlds reference — whether the offending field happens
//! to be certain or open. Callers wanting all-or-nothing state (the
//! session does) run these on a scratch clone.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use maybms_relational::{Error, Expr, Result, Value};

use crate::cell::Cell;
use crate::field::{Field, Tid};
use crate::normalize;
use crate::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};

use super::common::{
    add_exists_column, add_field_column, alias_cells, bind_pred, certain_values_at, dead_in_row,
    eval_partial, exists_loc, open_fields_at, snapshot,
};

/// What a DELETE / UPDATE did to the template tuples of the relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmlReport {
    /// Tuples affected in **every** world (predicate certain): removed
    /// outright by DELETE, edited in place by UPDATE.
    pub certain: usize,
    /// Tuples affected **conditionally** (predicate depends on component
    /// choices): existence or values now vary per world.
    pub conditioned: usize,
}

impl DmlReport {
    pub fn total(&self) -> usize {
        self.certain + self.conditioned
    }
}

/// `DELETE FROM rel WHERE pred` on the decomposition (`pred = None`
/// deletes every tuple). Normalizes afterwards.
pub fn delete_op(wsd: &mut Wsd, rel: &str, pred: Option<&Expr>) -> Result<DmlReport> {
    let input = snapshot(wsd, rel)?;
    let (schema, tuples) = (&input.schema, &input.tuples);
    let bound = match pred {
        Some(p) => Some(bind_pred(p, schema)?),
        None => None,
    };
    let arity = schema.len();
    let mut report = DmlReport::default();
    let mut removed: Vec<Tid> = Vec::new();
    let mut replaced: Vec<(Tid, TupleTemplate)> = Vec::new();

    for t in tuples {
        let Some((bound, positions)) = &bound else {
            // unconditional DELETE: the tuple is gone from every world
            removed.push(t.tid);
            report.certain += 1;
            continue;
        };
        let open = open_fields_at(wsd, t, positions)?;
        let known = certain_values_at(t, positions);
        if open.is_empty() {
            // the predicate decides identically in every world
            if eval_partial(bound, arity, &known)? {
                removed.push(t.tid);
                report.certain += 1;
            }
            continue;
        }

        // The decision varies per world: merge the components carrying
        // the open predicate fields (and the existence field, if open),
        // then replace the tuple by a derived one whose existence column
        // is ⊥ exactly where the predicate holds.
        let mut comp_set: Vec<usize> = open.iter().map(|&(_, (c, _))| c).collect();
        if let Some((c, _)) = exists_loc(wsd, t)? {
            comp_set.push(c);
        }
        let merged = wsd.merge_components(&comp_set)?;
        let open_now = open_fields_at(wsd, t, positions)?;
        let mut watch: Vec<usize> = open_now.iter().map(|&(_, (_, col))| col).collect();
        if let Some((c, col)) = exists_loc(wsd, t)? {
            debug_assert_eq!(c, merged);
            watch.push(col);
        }
        let new_tid = wsd.fresh_tid();
        // a predicate error in a live world aborts the statement (checked
        // after the scan — the session's scratch clone keeps it atomic)
        let eval_err: RefCell<Option<Error>> = RefCell::new(None);
        add_exists_column(wsd, merged, new_tid, |row| {
            if dead_in_row(row, &watch) {
                return Cell::Bottom; // already absent in these worlds
            }
            let mut vals = known.clone();
            for &(pos, (_, col)) in &open_now {
                match row.cell(col) {
                    Cell::Val(v) => {
                        vals.insert(pos, v.clone());
                    }
                    // watch covers every open predicate column, so the
                    // dead_in_row check above already returned for ⊥ rows
                    Cell::Bottom => unreachable!("⊥ predicate column in a live row"), // maybms-lint: allow(no-panic-in-prod) -- normalization guarantees live rows never carry bottom in a predicate column
                }
            }
            match eval_partial(bound, arity, &vals) {
                Ok(true) => Cell::Bottom,                // deleted in these worlds
                Ok(false) => Cell::Val(Value::Bool(true)), // survives here
                Err(e) => {
                    eval_err.borrow_mut().get_or_insert(e);
                    Cell::Bottom
                }
            }
        })?;
        if let Some(e) = eval_err.into_inner() {
            return Err(e);
        }
        let identity: Vec<usize> = (0..arity).collect();
        let cells = alias_cells(wsd, new_tid, t, &identity)?;
        replaced.push((
            t.tid,
            TupleTemplate { tid: new_tid, cells: cells.into(), exists: Existence::Open },
        ));
        report.conditioned += 1;
    }

    drop(input); // so the edits below copy the relation only if a clone shares it
    apply_template_edits(wsd, rel, removed, replaced, Vec::new());
    normalize::normalize(wsd);
    Ok(report)
}

/// `UPDATE rel SET col = value, ... WHERE pred` on the decomposition
/// (`pred = None` updates every tuple). Assigned values must type-check
/// against the schema; duplicate assignments are rejected. Normalizes
/// afterwards.
pub fn update_op(
    wsd: &mut Wsd,
    rel: &str,
    set: &[(String, Value)],
    pred: Option<&Expr>,
) -> Result<DmlReport> {
    let input = snapshot(wsd, rel)?;
    let (schema, tuples) = (&input.schema, &input.tuples);
    if set.is_empty() {
        return Err(Error::InvalidExpr("UPDATE with an empty SET list".into()));
    }
    let mut assignments: Vec<(usize, Value)> = Vec::with_capacity(set.len());
    for (col, v) in set {
        let pos = schema.index_of(col)?;
        if assignments.iter().any(|&(p, _)| p == pos) {
            return Err(Error::InvalidExpr(format!("duplicate assignment to column {col}")));
        }
        if !v.matches_type(schema.column(pos).ty) {
            return Err(Error::TypeError(format!("value {v} not valid for column {col}")));
        }
        assignments.push((pos, v.clone()));
    }
    let bound = match pred {
        Some(p) => Some(bind_pred(p, schema)?),
        None => None,
    };
    let arity = schema.len();
    let mut report = DmlReport::default();
    let mut replaced: Vec<(Tid, TupleTemplate)> = Vec::new();
    let mut edited: Vec<(Tid, Vec<(usize, Value)>)> = Vec::new();

    for t in tuples {
        let (open, known) = match &bound {
            Some((_, positions)) => {
                (open_fields_at(wsd, t, positions)?, certain_values_at(t, positions))
            }
            None => (Vec::new(), Default::default()),
        };
        let statically_decided = open.is_empty();
        if statically_decided {
            if let Some((bound, _)) = &bound {
                if !eval_partial(bound, arity, &known)? {
                    continue; // certainly unmatched: untouched in every world
                }
            }
        }
        let open_assigned: Vec<usize> = assignments
            .iter()
            .map(|&(pos, _)| pos)
            .filter(|&pos| matches!(t.cells[pos], TemplateCell::Open))
            .collect();

        if statically_decided && open_assigned.is_empty() {
            // certain predicate, certain targets: edit the template cells
            edited.push((t.tid, assignments.clone()));
            report.certain += 1;
            continue;
        }

        // Either the predicate or an assigned field varies per world:
        // merge what the new columns must observe and rebuild the tuple.
        let mut comp_set: Vec<usize> = open.iter().map(|&(_, (c, _))| c).collect();
        for &pos in &open_assigned {
            let (c, _) = wsd
                .field_loc(Field::attr(t.tid, pos as u32))
                .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {}.#{pos}", t.tid)))?;
            comp_set.push(c);
        }
        let merged = wsd.merge_components(&comp_set)?;
        let open_now = match &bound {
            Some((_, positions)) => open_fields_at(wsd, t, positions)?,
            None => Vec::new(),
        };
        let mut watch: Vec<usize> = open_now.iter().map(|&(_, (_, col))| col).collect();
        let mut target_col: Vec<Option<usize>> = Vec::with_capacity(assignments.len());
        for &(pos, _) in &assignments {
            if open_assigned.contains(&pos) {
                let (c, col) = wsd
                    .field_loc(Field::attr(t.tid, pos as u32))
                    .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {}.#{pos}", t.tid)))?;
                debug_assert_eq!(c, merged);
                watch.push(col);
                target_col.push(Some(col));
            } else {
                target_col.push(None);
            }
        }

        let new_tid = wsd.fresh_tid();
        // a predicate error in a live world aborts the statement (checked
        // after the scans — the session's scratch clone keeps it atomic)
        let eval_err: Rc<RefCell<Option<Error>>> = Rc::new(RefCell::new(None));
        // One fresh column per assigned field, all computed from the OLD
        // columns (the predicate sees pre-update values).
        for (&(pos, ref new_v), &old_col) in assignments.iter().zip(&target_col) {
            let old_certain = match &t.cells[pos] {
                TemplateCell::Certain(v) => Some(v.clone()),
                TemplateCell::Open => None,
            };
            let known = known.clone();
            let open_now = open_now.clone();
            let watch = watch.clone();
            let bound_ref = bound.as_ref().map(|(b, _)| b.clone());
            let new_v = new_v.clone();
            let eval_err = Rc::clone(&eval_err);
            add_field_column(wsd, merged, Field::attr(new_tid, pos as u32), move |row| {
                if dead_in_row(row, &watch) {
                    // the tuple does not exist in these worlds
                    return Cell::Bottom;
                }
                let matches = match &bound_ref {
                    None => true,
                    Some(b) => {
                        let mut vals = known.clone();
                        for &(p, (_, col)) in &open_now {
                            match row.cell(col) {
                                Cell::Val(v) => {
                                    vals.insert(p, v.clone());
                                }
                                // watch covers every open predicate column,
                                // so dead_in_row already returned for ⊥ rows
                                Cell::Bottom => {
                                    unreachable!("⊥ predicate column in a live row") // maybms-lint: allow(no-panic-in-prod) -- normalization guarantees live rows never carry bottom in a predicate column
                                }
                            }
                        }
                        match eval_partial(b, arity, &vals) {
                            Ok(m) => m,
                            Err(e) => {
                                eval_err.borrow_mut().get_or_insert(e);
                                false
                            }
                        }
                    }
                };
                if matches {
                    Cell::Val(new_v.clone())
                } else {
                    match (&old_certain, old_col) {
                        (Some(v), _) => Cell::Val(v.clone()),
                        (None, Some(col)) => row.cell(col).clone(),
                        (None, None) => unreachable!("open target resolved above"), // maybms-lint: allow(no-panic-in-prod) -- the open target was resolved above; both arms None cannot happen by construction
                    }
                }
            })?;
        }

        // Rebuild the template: assigned fields point at the fresh
        // columns, everything else aliases its old location.
        let mut cells = Vec::with_capacity(arity);
        for pos in 0..arity {
            if assignments.iter().any(|&(p, _)| p == pos) {
                cells.push(TemplateCell::Open); // mapped by add_field_column
            } else {
                match &t.cells[pos] {
                    TemplateCell::Certain(v) => cells.push(TemplateCell::Certain(v.clone())),
                    TemplateCell::Open => {
                        let loc = wsd
                            .field_loc(Field::attr(t.tid, pos as u32))
                            .ok_or_else(|| {
                                Error::InvalidExpr(format!("unmapped field {}.#{pos}", t.tid))
                            })?;
                        wsd.alias_field(Field::attr(new_tid, pos as u32), loc);
                        cells.push(TemplateCell::Open);
                    }
                }
            }
        }
        if let Some(e) = eval_err.borrow_mut().take() {
            return Err(e);
        }
        let exists = match exists_loc(wsd, t)? {
            None => Existence::Always,
            Some(loc) => {
                wsd.alias_field(Field::exists(new_tid), loc);
                Existence::Open
            }
        };
        replaced.push((t.tid, TupleTemplate { tid: new_tid, cells: cells.into(), exists }));
        if statically_decided {
            report.certain += 1;
        } else {
            report.conditioned += 1;
        }
    }

    drop(input); // so the edits below copy the relation only if a clone shares it
    apply_template_edits(wsd, rel, Vec::new(), replaced, edited);
    normalize::normalize(wsd);
    Ok(report)
}

/// Applies the collected template edits: removes `removed` tuples,
/// swaps each `(old, new)` of `replaced` in place (position preserved),
/// writes the in-place certain-cell `edited` assignments, and drops the
/// field mappings of all removed/replaced tuple identifiers (their
/// now-unreferenced columns are garbage-collected by the next normalize).
fn apply_template_edits(
    wsd: &mut Wsd,
    rel: &str,
    removed: Vec<Tid>,
    replaced: Vec<(Tid, TupleTemplate)>,
    edited: Vec<(Tid, Vec<(usize, Value)>)>,
) {
    let gone: HashSet<Tid> =
        removed.iter().copied().chain(replaced.iter().map(|&(old, _)| old)).collect();
    let tpl = wsd.relation_mut(rel).expect("snapshotted above"); // maybms-lint: allow(no-panic-in-prod) -- the relation was snapshotted from this same map earlier in the function
    if !removed.is_empty() {
        let rm: HashSet<Tid> = removed.into_iter().collect();
        tpl.tuples.retain(|t| !rm.contains(&t.tid));
    }
    // one index pass, then O(1) per edit — an unqualified UPDATE touches
    // every tuple, so per-edit scans would be quadratic
    let slot_of: HashMap<Tid, usize> =
        tpl.tuples.iter().enumerate().map(|(i, t)| (t.tid, i)).collect();
    for (old, new) in replaced {
        if let Some(&i) = slot_of.get(&old) {
            tpl.tuples[i] = new;
        }
    }
    for (tid, assignments) in edited {
        if let Some(&i) = slot_of.get(&tid) {
            for (pos, v) in assignments {
                debug_assert!(matches!(tpl.tuples[i].cells[pos], TemplateCell::Certain(_)));
                Arc::make_mut(&mut tpl.tuples[i].cells)[pos] = TemplateCell::Certain(v);
            }
        }
    }
    if !gone.is_empty() {
        wsd.retain_fields(|f| !gone.contains(&f.tid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::medical_wsd;
    use maybms_relational::{ColumnType, Schema, Tuple};
    use maybms_worldset::{OrSetCell, WorldSet};

    /// The world-level oracle: applies the DELETE per enumerated world.
    fn delete_in_worlds(wsd: &Wsd, rel: &str, pred: Option<&Expr>) -> WorldSet {
        let ws = wsd.to_worldset(1 << 16).unwrap();
        let mut out = WorldSet::default();
        for (w, p) in ws.worlds() {
            let mut w = w.clone();
            let r = w.get(rel).unwrap().clone();
            let kept: Vec<Tuple> = match pred {
                None => Vec::new(),
                Some(pred) => {
                    let b = pred.bind(&r.schema().clone()).unwrap();
                    r.rows().iter().filter(|t| !b.eval_predicate(t).unwrap()).cloned().collect()
                }
            };
            w.put(
                rel.to_string(),
                maybms_relational::Relation::from_rows_unchecked(r.schema().clone(), kept),
            );
            out.push(w, *p);
        }
        out
    }

    /// The world-level oracle: applies the UPDATE per enumerated world.
    fn update_in_worlds(
        wsd: &Wsd,
        rel: &str,
        set: &[(String, Value)],
        pred: Option<&Expr>,
    ) -> WorldSet {
        let ws = wsd.to_worldset(1 << 16).unwrap();
        let mut out = WorldSet::default();
        for (w, p) in ws.worlds() {
            let mut w = w.clone();
            let r = w.get(rel).unwrap().clone();
            let schema = r.schema().clone();
            let bound = pred.map(|p| p.bind(&schema).unwrap());
            let rows: Vec<Tuple> = r
                .rows()
                .iter()
                .map(|t| {
                    let matches =
                        bound.as_ref().map(|b| b.eval_predicate(t).unwrap()).unwrap_or(true);
                    if !matches {
                        return t.clone();
                    }
                    let mut vals = t.values().to_vec();
                    for (col, v) in set {
                        vals[schema.index_of(col).unwrap()] = v.clone();
                    }
                    Tuple::new(vals)
                })
                .collect();
            w.put(
                rel.to_string(),
                maybms_relational::Relation::from_rows_unchecked(schema, rows),
            );
            out.push(w, *p);
        }
        out
    }

    fn check_delete(wsd: &Wsd, rel: &str, pred: Option<&Expr>) {
        let oracle = delete_in_worlds(wsd, rel, pred);
        let mut got = wsd.clone();
        delete_op(&mut got, rel, pred).unwrap();
        got.validate().unwrap();
        let lhs = got.to_worldset(1 << 16).unwrap();
        assert!(
            lhs.equivalent(&oracle, 1e-9),
            "DELETE diverged from per-world semantics (pred {pred:?})"
        );
    }

    fn check_update(wsd: &Wsd, rel: &str, set: &[(String, Value)], pred: Option<&Expr>) {
        let oracle = update_in_worlds(wsd, rel, set, pred);
        let mut got = wsd.clone();
        update_op(&mut got, rel, set, pred).unwrap();
        got.validate().unwrap();
        let lhs = got.to_worldset(1 << 16).unwrap();
        assert!(
            lhs.equivalent(&oracle, 1e-9),
            "UPDATE diverged from per-world semantics (set {set:?}, pred {pred:?})"
        );
    }

    fn person_wsd() -> Wsd {
        let mut w = Wsd::new();
        w.add_relation(
            "p",
            Schema::new(vec![("ssn", ColumnType::Int), ("name", ColumnType::Str)]),
        )
        .unwrap();
        w.push_orset(
            "p",
            vec![
                OrSetCell::weighted(vec![(Value::Int(1), 0.4), (Value::Int(2), 0.6)]).unwrap(),
                OrSetCell::certain("ann"),
            ],
        )
        .unwrap();
        w.push_certain("p", vec![Value::Int(2), Value::str("bob")]).unwrap();
        w.push_orset(
            "p",
            vec![
                OrSetCell::certain(3i64),
                OrSetCell::uniform(vec![Value::str("cal"), Value::str("cai")]).unwrap(),
            ],
        )
        .unwrap();
        w
    }

    #[test]
    fn delete_certain_tuple_disappears_everywhere() {
        let wsd = person_wsd();
        let pred = Expr::col("name").eq(Expr::lit("bob"));
        check_delete(&wsd, "p", Some(&pred));
        let mut got = wsd.clone();
        let report = delete_op(&mut got, "p", Some(&pred)).unwrap();
        // bob certainly matches; cal's open name routes through the
        // conditioned path (normalize collapses the constant decision)
        assert_eq!(report, DmlReport { certain: 1, conditioned: 1 });
        assert_eq!(got.relation("p").unwrap().tuples.len(), 2);
    }

    #[test]
    fn delete_possible_tuple_conditions_existence() {
        let wsd = person_wsd();
        // ann has ssn=1 with p 0.4: she is deleted in exactly those worlds
        let pred = Expr::col("ssn").eq(Expr::lit(1i64));
        check_delete(&wsd, "p", Some(&pred));
        let mut got = wsd.clone();
        let report = delete_op(&mut got, "p", Some(&pred)).unwrap();
        assert_eq!(report, DmlReport { certain: 0, conditioned: 1 });
        // world probabilities are untouched (no renormalization): ann
        // survives with her ssn certainly 2 at confidence 0.6
        let conf = got.tuple_confidence("p").unwrap();
        let ann = conf.iter().find(|(t, _)| t[1] == Value::str("ann")).unwrap();
        assert_eq!(ann.0[0], Value::Int(2));
        assert!((ann.1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn delete_without_where_empties_the_relation() {
        let wsd = person_wsd();
        check_delete(&wsd, "p", None);
        let mut got = wsd.clone();
        let report = delete_op(&mut got, "p", None).unwrap();
        assert_eq!(report.total(), 3);
        assert!(got.relation("p").unwrap().tuples.is_empty());
        // the relation itself survives (empty in every world)
        assert_eq!(got.num_components(), 0);
    }

    #[test]
    fn delete_predicate_spanning_components() {
        let wsd = medical_wsd();
        let pred = Expr::col("diagnosis")
            .eq(Expr::lit("pregnancy"))
            .or(Expr::col("symptom").eq(Expr::lit("fatigue")));
        check_delete(&wsd, "R", Some(&pred));
    }

    #[test]
    fn delete_everything_possible_still_matches_worlds() {
        // deleting on a tautology over an uncertain field removes the
        // tuple in every world even through the conditional path
        let wsd = person_wsd();
        let pred = Expr::col("ssn").ge(Expr::lit(0i64));
        check_delete(&wsd, "p", Some(&pred));
    }

    #[test]
    fn update_certain_tuple_edits_template() {
        let wsd = person_wsd();
        let set = vec![("name".to_string(), Value::str("bobby"))];
        let pred = Expr::col("ssn").eq(Expr::lit(2i64)).and(Expr::col("name").eq(Expr::lit("bob")));
        check_update(&wsd, "p", &set, Some(&pred));
        let mut got = wsd.clone();
        let report = update_op(&mut got, "p", &set, Some(&pred)).unwrap();
        // bob is certainly matched and edited in place; ann and cal carry
        // open predicate fields, so they route through the conditioned path
        assert_eq!(report, DmlReport { certain: 1, conditioned: 2 });
    }

    #[test]
    fn update_possible_match_keeps_old_value_elsewhere() {
        let wsd = person_wsd();
        // ann's ssn is uncertain: where it is 1 her name changes
        let set = vec![("name".to_string(), Value::str("anna"))];
        let pred = Expr::col("ssn").eq(Expr::lit(1i64));
        check_update(&wsd, "p", &set, Some(&pred));
    }

    #[test]
    fn update_open_target_with_certain_predicate() {
        let wsd = person_wsd();
        // overwrite the uncertain ssn of ann with a certain value
        let set = vec![("ssn".to_string(), Value::Int(9))];
        let pred = Expr::col("name").eq(Expr::lit("ann"));
        check_update(&wsd, "p", &set, Some(&pred));
        let mut got = wsd.clone();
        update_op(&mut got, "p", &set, Some(&pred)).unwrap();
        // the or-set collapsed: ann's ssn is certain now
        let conf = got.tuple_confidence("p").unwrap();
        let ann = conf.iter().find(|(t, _)| t[1] == Value::str("ann")).unwrap();
        assert_eq!(ann.0[0], Value::Int(9));
        assert!((ann.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn update_open_target_depending_on_itself() {
        let wsd = person_wsd();
        // predicate and target are the same uncertain column
        let set = vec![("ssn".to_string(), Value::Int(7))];
        let pred = Expr::col("ssn").eq(Expr::lit(1i64));
        check_update(&wsd, "p", &set, Some(&pred));
    }

    #[test]
    fn update_without_where_and_multiple_columns() {
        let wsd = person_wsd();
        let set = vec![
            ("ssn".to_string(), Value::Int(0)),
            ("name".to_string(), Value::str("anon")),
        ];
        check_update(&wsd, "p", &set, None);
    }

    #[test]
    fn update_on_conditionally_deleted_tuples_preserves_absence() {
        // DELETE makes existence conditional, then UPDATE must not
        // resurrect the tuple in the worlds it was deleted from
        let mut wsd = person_wsd();
        let del = Expr::col("ssn").eq(Expr::lit(1i64));
        delete_op(&mut wsd, "p", Some(&del)).unwrap();
        wsd.validate().unwrap();
        let set = vec![("name".to_string(), Value::str("zz"))];
        check_update(&wsd, "p", &set, None);
        let pred = Expr::col("ssn").eq(Expr::lit(2i64));
        check_update(&wsd, "p", &set, Some(&pred));
        check_delete(&wsd, "p", Some(&pred));
    }

    #[test]
    fn update_rejects_bad_assignments() {
        let mut wsd = person_wsd();
        assert!(update_op(
            &mut wsd,
            "p",
            &[("ssn".to_string(), Value::str("not an int"))],
            None
        )
        .is_err());
        assert!(update_op(&mut wsd, "p", &[("nope".to_string(), Value::Int(1))], None).is_err());
        assert!(update_op(
            &mut wsd,
            "p",
            &[
                ("ssn".to_string(), Value::Int(1)),
                ("ssn".to_string(), Value::Int(2))
            ],
            None
        )
        .is_err());
        assert!(update_op(&mut wsd, "p", &[], None).is_err());
        assert!(delete_op(&mut wsd, "missing", None).is_err());
    }

    /// A predicate that errors in some world aborts the statement whether
    /// the offending field is certain or open — matching the all-worlds
    /// reference, which would hit the same error while enumerating.
    #[test]
    fn predicate_errors_abort_even_on_open_fields() {
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
        w.push_orset(
            "r",
            vec![
                OrSetCell::weighted(vec![(Value::Int(0), 0.5), (Value::Int(2), 0.5)]).unwrap(),
                OrSetCell::certain(0i64),
            ],
        )
        .unwrap();
        // 10 / a errors in the a = 0 worlds
        let pred = Expr::Bin(
            maybms_relational::BinOp::Div,
            Box::new(Expr::lit(10i64)),
            Box::new(Expr::col("a")),
        )
        .eq(Expr::lit(5i64));
        assert!(delete_op(&mut w.clone(), "r", Some(&pred)).is_err());
        assert!(update_op(
            &mut w.clone(),
            "r",
            &[("b".to_string(), Value::Int(1))],
            Some(&pred)
        )
        .is_err());
        // a predicate erroring only in worlds where the tuple is absent
        // must NOT abort: delete the a = 0 alternative first …
        let gone = Expr::col("a").eq(Expr::lit(0i64));
        let mut alive = w.clone();
        delete_op(&mut alive, "r", Some(&gone)).unwrap();
        // … then the division is safe in every surviving world
        delete_op(&mut alive.clone(), "r", Some(&pred)).unwrap();
        update_op(&mut alive, "r", &[("b".to_string(), Value::Int(1))], Some(&pred)).unwrap();
    }

    #[test]
    fn delete_on_medical_example_prob_drops() {
        let mut wsd = medical_wsd();
        // r1 is in pregnancy-worlds with p=0.4; deleting pregnancy rows
        // leaves it possible only as hypothyroidism (p=0.6)
        let pred = Expr::col("diagnosis").eq(Expr::lit("pregnancy"));
        check_delete(&wsd, "R", Some(&pred));
        delete_op(&mut wsd, "R", Some(&pred)).unwrap();
        let conf = wsd.tuple_confidence("R").unwrap();
        assert!(conf.iter().all(|(t, _)| t[0] != Value::str("pregnancy")));
    }
}
