//! DML on stored decompositions: `DELETE` and `UPDATE` with world-set
//! semantics.
//!
//! A tuple whose predicate is **settled** — the same in every world,
//! decided on the possible values of the fields it reads
//! ([`settled`]) — is removed, edited in the template directly or left
//! untouched: it changes in every world at once, or in none. Otherwise
//! the tuple is replaced by a derived one whose fields alias the
//! original columns, with the decision written by the kernel
//! ([`Reads`]): `DELETE` appends an existence column that is ⊥ exactly
//! where the predicate holds; `UPDATE` appends one value column per
//! assigned field holding the new value where the predicate holds and
//! the old value elsewhere. The new columns are computed from the old
//! ones before any field is remapped, so predicates see pre-update
//! values (standard SQL). Assigned values are certain scalars.
//!
//! Unlike [`crate::chase`], which *removes worlds* and renormalizes, DML
//! never touches row probabilities: every world survives with its
//! original probability, only its tuples change. So a tuple that
//! *certainly* matches a `DELETE` disappears from every world; one that
//! only *possibly* matches survives exactly where the predicate is false
//! (its confidence drops accordingly); one that certainly fails is
//! untouched, bit for bit. A statement that fails midway leaves `wsd`
//! half written: callers wanting all-or-nothing state (the session does)
//! run these on a scratch clone.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use maybms_relational::{Error, Expr, Result, Value};

use crate::cell::Cell;
use crate::field::{Field, Tid};
use crate::normalize;
use crate::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};

use super::common::{
    alias_cells, bind_pred, exists_cell, inherit_exists, settled, snapshot, varies, Part, Reads,
};

/// What a DELETE / UPDATE did to the template tuples of the relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmlReport {
    /// Tuples affected in **every** world (predicate settled true):
    /// removed outright by DELETE, edited in place by UPDATE.
    pub certain: usize,
    /// Tuples affected **conditionally** (predicate true in some worlds,
    /// false in others): existence or values now vary per world.
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
    let (bound, positions) = bind_pred(pred.unwrap_or(&Expr::lit(true)), schema)?;
    let arity = schema.len();
    let mut report = DmlReport::default();
    let mut removed: Vec<Tid> = Vec::new();
    let mut replaced: Vec<(Tid, TupleTemplate)> = Vec::new();

    for t in tuples {
        let part = [Part::new(t, &positions, 0)];
        match settled(wsd, &part, |row| bound.eval_predicate(row))? {
            Some(true) => {
                removed.push(t.tid);
                report.certain += 1;
                continue;
            }
            Some(false) => continue,
            None => {}
        }

        // The decision varies per world: replace the tuple by a derived
        // one whose existence column is ⊥ exactly where the predicate
        // holds.
        let mut reads = Reads::merge(wsd, &part)?;
        let new_tid = wsd.fresh_tid();
        reads.write_column(wsd, Field::exists(new_tid), |row| {
            Ok(exists_cell(!bound.eval_predicate(row.vals)?))
        })?;
        let cells = alias_cells(wsd, new_tid, t, 0..arity, 0)?;
        replaced.push((
            t.tid,
            TupleTemplate { tid: new_tid, cells: cells.into(), exists: Existence::Open },
        ));
        report.conditioned += 1;
    }

    drop(input); // so the edits below copy the relation only if a clone shares it
    apply_template_edits(wsd, rel, removed, replaced, Vec::new())?;
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
    let (bound, positions) = bind_pred(pred.unwrap_or(&Expr::lit(true)), schema)?;
    let arity = schema.len();
    let mut report = DmlReport::default();
    let mut replaced: Vec<(Tid, TupleTemplate)> = Vec::new();
    let mut edited: Vec<(Tid, Vec<(usize, Value)>)> = Vec::new();

    // the positions read: the predicate's where it varies, and the
    // assigned ones, whose old values fill the rows where it fails
    let assigned_at: Vec<usize> = assignments.iter().map(|&(pos, _)| pos).collect();
    let reads_at: Vec<usize> = positions.iter().chain(&assigned_at).copied().collect();

    for t in tuples {
        // the predicate, unless it is the same in every world
        let part = [Part::new(t, &positions, 0)];
        let per_world = match settled(wsd, &part, |row| bound.eval_predicate(row))? {
            Some(false) => continue, // untouched in every world
            Some(true) => None,
            None => Some(&bound),
        };
        let reads_at = if per_world.is_some() { &reads_at } else { &assigned_at };
        let part = [Part::new(t, reads_at, 0).values_only()];
        if !varies(&part) {
            // matched everywhere, certain targets: edit the template cells
            edited.push((t.tid, assignments.clone()));
            report.certain += 1;
            continue;
        }

        // Either the predicate or an assigned field varies per world:
        // one fresh column per assigned field, all computed from the OLD
        // columns, then the tuple is rebuilt around them.
        let mut reads = Reads::merge(wsd, &part)?;
        let new_tid = wsd.fresh_tid();
        for (pos, new_v) in &assignments {
            reads.write_column(wsd, Field::attr(new_tid, *pos as u32), |row| {
                let hit = per_world.map_or(Ok(true), |b| b.eval_predicate(row.vals))?;
                Ok(Cell::Val(if hit { new_v } else { &row.vals[*pos] }.clone()))
            })?;
        }
        let mut cells = Vec::with_capacity(arity);
        for pos in 0..arity {
            if assignments.iter().any(|&(p, _)| p == pos) {
                cells.push(TemplateCell::Open); // mapped by write_column
            } else {
                cells.extend(alias_cells(wsd, new_tid, t, [pos], pos)?);
            }
        }
        let exists = inherit_exists(wsd, t, new_tid)?;
        replaced.push((t.tid, TupleTemplate { tid: new_tid, cells: cells.into(), exists }));
        *if per_world.is_some() { &mut report.conditioned } else { &mut report.certain } += 1;
    }

    drop(input); // so the edits below copy the relation only if a clone shares it
    apply_template_edits(wsd, rel, Vec::new(), replaced, edited)?;
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
) -> Result<()> {
    let gone: HashSet<Tid> =
        removed.iter().copied().chain(replaced.iter().map(|&(old, _)| old)).collect();
    let tpl = wsd.relation_mut(rel)?;
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
    Ok(())
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
        // bob certainly matches; cal's open name is never bob, so cal is
        // left untouched
        assert_eq!(report, DmlReport { certain: 1, conditioned: 0 });
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

    /// `k` and `v` in separate components: only the tuple that can have
    /// both `k = 1` and `v = 3` is conditioned, and only its components
    /// merge.
    #[test]
    fn delete_conditions_only_tuples_that_can_match() {
        let mut w = Wsd::new();
        w.add_relation("obs", Schema::new(vec![("k", ColumnType::Int), ("v", ColumnType::Int)]))
            .unwrap();
        for (k, v) in [(1, 3), (2, 3), (1, 5)] {
            let pair = |x: i64| OrSetCell::uniform(vec![Value::Int(x), Value::Int(x + 1)]).unwrap();
            w.push_orset("obs", vec![pair(k), pair(v)]).unwrap();
        }
        assert_eq!(w.num_components(), 6);
        let pred = Expr::col("k").eq(Expr::lit(1i64)).and(Expr::col("v").eq(Expr::lit(3i64)));
        check_delete(&w, "obs", Some(&pred));
        let report = delete_op(&mut w, "obs", Some(&pred)).unwrap();
        assert_eq!(report, DmlReport { certain: 0, conditioned: 1 });
        // the two tuples that cannot match keep their four components
        assert_eq!(w.num_components(), 5);
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
        // bob is certainly matched and edited in place; ann's and cal's
        // open fields never satisfy the predicate, so they are untouched
        assert_eq!(report, DmlReport { certain: 1, conditioned: 0 });
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
