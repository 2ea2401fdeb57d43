//! WSD normalization.
//!
//! After a query marks fields with ⊥, the decomposition usually contains
//! redundancy. The paper normalizes by (1) propagating ⊥ across the fields
//! a dead tuple has in the same component row, (2) dropping the columns of
//! tuples that exist in no world, and (3) merging rows that have become
//! identical. We additionally (4) inline columns that became constant into
//! the template (the inverse of decomposition) and (5) drop components left
//! without fields.
//!
//! # Incremental (dirty-set) normalization
//!
//! [`normalize`] is **incremental**: it drains the [`crate::wsd::Wsd`]
//! dirty set — the components touched since the last normalize — and runs
//! the passes only over those, re-marking a component *only when a pass
//! actually changes it* (sets a ⊥, drops a column, merges rows, …).
//! Because every change is monotone (⊥ cells only grow; tuples, columns
//! and rows only shrink) the drain loop terminates, and components that
//! were already at fixpoint are never rescanned. All ownership questions
//! ("which tuples reference this column?") are answered by the WSD's
//! persistent reverse field index instead of per-pass template scans.
//!
//! The contract for mutators: any operation that touches a component's
//! rows, adds/merges components, or takes a field away from a component
//! marks the affected components dirty (the `Wsd` mutation API does this
//! automatically; the crate::wsd "dirty set" docs say why aliasing a
//! field to a column does not), so a following `normalize` sees exactly
//! the damage. [`normalize_from_scratch`]
//! marks everything dirty first — the full-fixpoint escape hatch used by
//! oracle tests; [`normalize_full`] additionally re-factorizes components
//! into independent parts (see [`crate::factorize`]).
//!
//! Every pass is a sequential loop over the dirty components: each is
//! microseconds of work, and a per-component fan-out over the worker
//! pool never measured faster (`BENCH_e6.json` before PR 18).

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use maybms_obs::Counter;

use crate::cell::Cell;
use crate::exec::WorkerPool;
use crate::field::{FieldKind, Tid};
use crate::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};

/// Step 1: ⊥-propagation. In each component row, a tuple is dead if any of
/// its columns there is ⊥; the *other* columns of that row referenced only
/// by dead tuples carry irrelevant values and are set to ⊥ (this is what
/// turns the paper's `(⊥, TSH)` row into `(⊥, ⊥)`), enabling row merging.
/// Tuple/column ownership comes from the reverse field index; cells are
/// tested through interned codes, not materialized rows.
fn propagate_bottom(wsd: &mut Wsd, comps: &[usize]) {
    for &ci in comps {
        let writes = bottom_writes_of(wsd, ci);
        if writes.is_empty() {
            continue;
        }
        let comp = wsd.component_mut_silent(ci).expect("live component"); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
        for (row, col) in writes {
            comp.set_bottom(row, col);
        }
        wsd.mark_dirty(ci);
    }
}

/// The read-only half of ⊥-propagation for one component: the `(row,
/// col)` cells that must become ⊥.
fn bottom_writes_of(wsd: &Wsd, ci: usize) -> Vec<(usize, usize)> {
    let Some(comp) = wsd.component(ci) else { return Vec::new() };
    let rev = wsd.fields_of_component(ci);
    // tuples with at least one column in this component
    let mut tuple_cols: HashMap<Tid, Vec<usize>> = HashMap::new();
    for (col, fields) in rev.iter().enumerate() {
        for f in fields {
            tuple_cols.entry(f.tid).or_default().push(col);
        }
    }
    if tuple_cols.is_empty() {
        return Vec::new();
    }
    // maybms-lint: allow(determinism) -- tuples_here order feeds only per-tuple dead/owner predicates; `writes` is emitted in (row, col) scan order below
    let tuples_here: Vec<(Tid, Vec<usize>)> = tuple_cols.into_iter().collect();
    let ncols = comp.num_fields();
    // per column: which tuples (as indices into tuples_here) own it
    let mut owners: Vec<Vec<usize>> = vec![Vec::new(); ncols];
    for (ti, (_, cols)) in tuples_here.iter().enumerate() {
        for &c in cols {
            owners[c].push(ti);
        }
    }

    let mut writes: Vec<(usize, usize)> = Vec::new();
    let mut dead = vec![false; tuples_here.len()];
    for row in 0..comp.num_rows() {
        let mut any_dead = false;
        for (ti, (_, cols)) in tuples_here.iter().enumerate() {
            dead[ti] = cols.iter().any(|&c| comp.cell(row, c).is_bottom());
            any_dead |= dead[ti];
        }
        if !any_dead {
            continue;
        }
        for (col, os) in owners.iter().enumerate() {
            if comp.cell(row, col).is_bottom() {
                continue;
            }
            if !os.is_empty() && os.iter().all(|&ti| dead[ti]) {
                writes.push((row, col));
            }
        }
    }
    writes
}

/// Step 2: drop tuples that exist in no world — those with an open field or
/// existence column that is ⊥ in *every* row of its component. Only columns
/// of dirty components can have become all-⊥ since the last normalize, so
/// only those are scanned.
fn drop_dead_tuples(wsd: &mut Wsd, comps: &[usize]) {
    let mut dead: HashSet<Tid> = HashSet::new();
    for &ci in comps {
        let Some(comp) = wsd.component(ci) else { continue };
        for (col, fields) in wsd.fields_of_component(ci).iter().enumerate() {
            if fields.is_empty() || col >= comp.num_fields() {
                continue;
            }
            if comp.column_all_bottom(col) {
                dead.extend(fields.iter().map(|f| f.tid));
            }
        }
    }
    if dead.is_empty() {
        return;
    }
    // copy-on-write only the relations that hold a dead tuple
    let mut doomed = Vec::new();
    for tpl in wsd.relations.values_mut() {
        if tpl.tuples.iter().any(|t| dead.contains(&t.tid)) {
            let tuples = &mut Arc::make_mut(tpl).tuples;
            let gone = tuples.iter().filter(|t| dead.contains(&t.tid));
            doomed.extend(gone.flat_map(TupleTemplate::open_fields));
            tuples.retain(|t| !dead.contains(&t.tid));
        }
    }
    wsd.unmap_fields(doomed);
}

/// Step 3: inline constant columns. A column whose cells are the same
/// non-⊥ value in every row does not vary across worlds: attribute fields
/// become certain template values, existence fields become `Always`.
fn inline_constants(wsd: &mut Wsd, comps: &[usize]) {
    // (field, Some(value) for attrs / None for exists) pairs to inline
    let mut resolved: Vec<(crate::field::Field, Option<maybms_relational::Value>)> = Vec::new();
    for &ci in comps {
        let Some(comp) = wsd.component(ci) else { continue };
        for (col, fields) in wsd.fields_of_component(ci).iter().enumerate() {
            if fields.is_empty() || col >= comp.num_fields() {
                continue;
            }
            if let Some(cell) = comp.column_constant(col) {
                for &f in fields {
                    match (f.kind, cell) {
                        (FieldKind::Attr(_), Cell::Val(v)) => resolved.push((f, Some(v.clone()))),
                        (FieldKind::Exists, _) => resolved.push((f, None)),
                        (FieldKind::Attr(_), Cell::Bottom) => {
                            unreachable!("constant is non-⊥") // maybms-lint: allow(no-panic-in-prod) -- constants are never bottom by parser construction
                        }
                    }
                }
            }
        }
    }
    if resolved.is_empty() {
        return;
    }
    // tid → (relation, tuple index) for exactly the affected tuples
    let affected: HashSet<Tid> = resolved.iter().map(|(f, _)| f.tid).collect();
    let mut where_is: HashMap<Tid, (String, usize)> = HashMap::with_capacity(affected.len());
    for (name, tpl) in &wsd.relations {
        for (i, t) in tpl.tuples.iter().enumerate() {
            if affected.contains(&t.tid) {
                where_is.insert(t.tid, (name.clone(), i));
            }
        }
    }
    for (f, val) in resolved {
        let Some((rel, i)) = where_is.get(&f.tid) else { continue };
        let t = &mut wsd.relation_mut(rel).expect("indexed").tuples[*i]; // maybms-lint: allow(no-panic-in-prod) -- rel names were collected from this same relations map above
        match (f.kind, val) {
            (FieldKind::Attr(pos), Some(v)) => {
                if matches!(t.cells[pos as usize], TemplateCell::Open) {
                    Arc::make_mut(&mut t.cells)[pos as usize] = TemplateCell::Certain(v);
                    wsd.unmap_field(f);
                }
            }
            (FieldKind::Exists, None) if t.exists == Existence::Open => {
                t.exists = Existence::Always;
                wsd.unmap_field(f);
            }
            _ => {}
        }
    }
}

/// Step 4: garbage-collect unreferenced columns: project every dirty
/// component onto the columns still referenced by some template field
/// (merging rows and summing probabilities — this is what removes the
/// paper's Symptom component after the projection). Fieldless components
/// are dropped.
fn gc_columns(wsd: &mut Wsd, comps: &[usize]) {
    for &ci in comps {
        let Some(comp) = wsd.component(ci) else { continue };
        let rev = wsd.fields_of_component(ci);
        let keep: Vec<usize> = (0..comp.num_fields())
            .filter(|&c| rev.get(c).map(|v| !v.is_empty()).unwrap_or(false))
            .collect();
        if keep.len() == comp.num_fields() {
            continue;
        }
        if keep.is_empty() {
            wsd.drop_component(ci);
            continue;
        }
        wsd.project_component(ci, &keep);
        wsd.mark_dirty(ci);
    }
}

/// Step 5: merge duplicate rows in every dirty component. Planned on the
/// (possibly shared) component; only a component that changes is copied.
fn dedup_rows(wsd: &mut Wsd, comps: &[usize]) {
    for &ci in comps {
        let Some(plan) = wsd.component(ci).and_then(|c| c.dedup_plan(1e-12)) else {
            continue;
        };
        if let Some(c) = wsd.component_mut_silent(ci) {
            c.apply_dedup(plan);
            wsd.mark_dirty(ci);
        }
    }
}

/// The incremental normalization pipeline: drains the dirty set to a
/// fixpoint, then compacts component slots. Components untouched since the
/// last normalize are never scanned.
pub fn normalize(wsd: &mut Wsd) {
    /// Normalization counters, resolved once: fixpoint passes run and
    /// dirty components scanned.
    struct NormMetrics {
        passes: Arc<Counter>,
        components: Arc<Counter>,
    }
    fn metrics() -> &'static NormMetrics {
        static M: OnceLock<NormMetrics> = OnceLock::new();
        M.get_or_init(|| NormMetrics {
            passes: maybms_obs::counter("normalize.passes"),
            components: maybms_obs::counter("normalize.components"),
        })
    }
    let mut drained: Vec<usize> = Vec::new();
    loop {
        let dirty = wsd.take_dirty();
        if dirty.is_empty() {
            break;
        }
        drained.extend(&dirty);
        metrics().passes.inc();
        metrics().components.add(dirty.len() as u64);
        propagate_bottom(wsd, &dirty);
        drop_dead_tuples(wsd, &dirty);
        inline_constants(wsd, &dirty);
        gc_columns(wsd, &dirty);
        dedup_rows(wsd, &dirty);
    }
    if !drained.is_empty() || wsd.has_tombstones() {
        drained.sort_unstable();
        drained.dedup();
        wsd.compact_touched(&drained);
    }
}

/// [`normalize`]; the pool is ignored. Kept because the frozen
/// `benchmark/` crate imports this name — fold it in the next benchmark PR.
pub fn normalize_in(wsd: &mut Wsd, _pool: &WorkerPool) {
    normalize(wsd);
}

/// Full-pass normalization: marks every live component dirty first. The
/// oracle reference for [`normalize`] and the escape hatch for callers
/// that bypassed the `Wsd` mutation API.
pub fn normalize_from_scratch(wsd: &mut Wsd) {
    wsd.mark_all_dirty();
    normalize(wsd);
}

/// Full normalization plus factorization of every component into
/// independent parts, then normalization again (factor blocks may expose
/// constants).
pub fn normalize_full(wsd: &mut Wsd) {
    normalize_from_scratch(wsd);
    crate::factorize::factorize_all(wsd);
    normalize(wsd);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{CompRow, Component};
    use crate::field::Field;
    use maybms_relational::{ColumnType, Schema, Value};
    use maybms_worldset::OrSetCell;

    fn v(s: &str) -> Cell {
        Cell::Val(Value::str(s))
    }

    /// Rebuild the paper's post-selection WSD (§2) and normalize it.
    /// Expected: the r2 tuple disappears, its components are dropped, and
    /// (⊥, TSH) becomes (⊥, ⊥) by propagation.
    #[test]
    fn paper_normalization_example() {
        let schema = Schema::new(vec![
            ("diagnosis", ColumnType::Str),
            ("test", ColumnType::Str),
            ("symptom", ColumnType::Str),
        ]);
        let mut w = Wsd::new();
        w.add_relation("R", schema).unwrap();

        // r1: components as in the paper, post-selection on Diagnosis.
        let r1 = w.fresh_tid();
        let c1 = Component::new(
            vec![Field::attr(r1, 0), Field::attr(r1, 1)],
            vec![
                CompRow::new(vec![v("pregnancy"), v("ultrasound")], 0.4),
                CompRow::new(vec![Cell::Bottom, v("TSH")], 0.6),
            ],
        );
        let c2 = Component::singleton(
            Field::attr(r1, 2),
            vec![(v("weight gain"), 0.7), (v("fatigue"), 0.3)],
        );
        w.add_component(c1);
        w.add_component(c2);
        w.push_template(
            "R",
            crate::wsd::TupleTemplate {
                tid: r1,
                cells: vec![TemplateCell::Open, TemplateCell::Open, TemplateCell::Open].into(),
                exists: Existence::Always,
            },
        )
        .unwrap();

        // r2: all fields marked ⊥ by the selection.
        let r2 = w.fresh_tid();
        for pos in 0..3u32 {
            let comp = Component::singleton(Field::attr(r2, pos), vec![(Cell::Bottom, 1.0)]);
            w.add_component(comp);
        }
        w.push_template(
            "R",
            crate::wsd::TupleTemplate {
                tid: r2,
                cells: vec![TemplateCell::Open, TemplateCell::Open, TemplateCell::Open].into(),
                exists: Existence::Always,
            },
        )
        .unwrap();
        w.validate().unwrap();

        let before = w.to_worldset(100).unwrap();
        normalize(&mut w);
        w.validate().unwrap();
        let after = w.to_worldset(100).unwrap();
        assert!(before.equivalent(&after, 1e-9), "normalization must preserve semantics");

        // r2 is gone
        assert_eq!(w.relation("R").unwrap().tuples.len(), 1);
        // only the two r1 components remain
        assert_eq!(w.num_components(), 2);
        // ⊥ propagated onto TSH in the first component
        let stats = w.stats();
        assert_eq!(stats.component_rows, 4);
        let c = w
            .field_loc(Field::attr(r1, 1))
            .and_then(|(ci, _)| w.component(ci))
            .unwrap();
        assert!(c
            .rows()
            .iter()
            .any(|r| r.cells.iter().all(Cell::is_bottom)));
    }

    #[test]
    fn inline_constants_moves_to_template() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        // a single-alternative "or-set" stored as a component on purpose
        let t = w.fresh_tid();
        let comp = Component::singleton(Field::attr(t, 0), vec![(Cell::Val(Value::Int(7)), 1.0)]);
        w.add_component(comp);
        w.push_template(
            "r",
            crate::wsd::TupleTemplate {
                tid: t,
                cells: vec![TemplateCell::Open].into(),
                exists: Existence::Always,
            },
        )
        .unwrap();
        normalize(&mut w);
        assert_eq!(w.num_components(), 0);
        assert_eq!(
            w.relation("r").unwrap().tuples[0].cells[0],
            TemplateCell::Certain(Value::Int(7))
        );
        let ws = w.to_worldset(10).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.worlds()[0].0.get("r").unwrap().len(), 1);
    }

    #[test]
    fn normalization_preserves_semantics_on_orset_wsd() {
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Str)]),
        )
        .unwrap();
        for i in 0..3 {
            w.push_orset(
                "r",
                vec![
                    OrSetCell::weighted(vec![(Value::Int(i), 0.5), (Value::Int(i + 10), 0.5)])
                        .unwrap(),
                    OrSetCell::certain("x"),
                ],
            )
            .unwrap();
        }
        let before = w.to_worldset(100).unwrap();
        normalize_full(&mut w);
        w.validate().unwrap();
        let after = w.to_worldset(100).unwrap();
        assert!(before.equivalent(&after, 1e-9));
    }

    #[test]
    fn incremental_skips_clean_components() {
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
        for i in 0..4 {
            w.push_orset(
                "r",
                vec![
                    OrSetCell::weighted(vec![(Value::Int(i), 0.5), (Value::Int(i + 10), 0.5)])
                        .unwrap(),
                    OrSetCell::certain(0i64),
                ],
            )
            .unwrap();
        }
        normalize(&mut w);
        assert!(w.dirty_components().is_empty(), "normalize drains the dirty set");
        // a second normalize with no mutations touches nothing and
        // preserves the decomposition
        let stats = w.stats();
        normalize(&mut w);
        assert_eq!(w.stats(), stats);
        // mutating one component makes exactly it dirty
        let live = w.live_components();
        let _ = w.component_mut(live[0]);
        assert_eq!(w.dirty_components(), vec![live[0]]);
        normalize(&mut w);
        assert!(w.dirty_components().is_empty());
    }

    #[test]
    fn incremental_equals_full_pass() {
        // Build, normalize, then damage one component through the tracked
        // API; the incremental result must equal normalize_from_scratch on
        // a copy.
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        for i in 0..3 {
            w.push_orset(
                "r",
                vec![OrSetCell::weighted(vec![
                    (Value::Int(i), 0.5),
                    (Value::Int(i + 10), 0.5),
                ])
                .unwrap()],
            )
            .unwrap();
        }
        normalize(&mut w);
        // kill one alternative via the chase-style mutation API
        let live = w.live_components();
        let c = w.component_mut(live[0]).unwrap();
        c.retain_rows(|r| r.cell(0) != &Cell::Val(Value::Int(0)));
        c.renormalize();

        let mut full = w.clone();
        normalize(&mut w);
        normalize_from_scratch(&mut full);
        w.validate().unwrap();
        full.validate().unwrap();
        let a = w.to_worldset(1000).unwrap();
        let b = full.to_worldset(1000).unwrap();
        assert!(a.equivalent(&b, 1e-9));
        assert_eq!(w.stats(), full.stats());
    }

    #[test]
    fn gc_drops_unreferenced_component() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        // orphan component not referenced by any template
        let orphan = Component::singleton(
            Field::attr(crate::field::Tid(999), 0),
            vec![(Cell::Val(Value::Int(1)), 0.5), (Cell::Val(Value::Int(2)), 0.5)],
        );
        w.add_component(orphan);
        // gc keeps it while the field map still references it — so first
        // drop the mappings, as deleting its tuple would.
        w.clear_field_map();
        normalize(&mut w);
        assert_eq!(w.num_components(), 0);
    }
}
