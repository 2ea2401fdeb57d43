//! Shared machinery for the WSD operators.

use std::collections::HashMap;
use std::sync::Arc;

use maybms_relational::{BoundExpr, Error, Expr, Result, Schema, Tuple, Value};

use crate::cell::Cell;
use crate::component::RowRef;
use crate::field::{Field, Tid};
use crate::wsd::{Existence, RelTemplate, TemplateCell, TupleTemplate, Wsd};

/// The input relation an operator reads while it rewrites the WSD: a
/// shared handle on its template, O(1). Should the operator write to
/// that same relation, the write copies it away from this handle, so
/// drop the handle first to write in place.
pub(crate) fn snapshot(wsd: &Wsd, rel: &str) -> Result<Arc<RelTemplate>> {
    wsd.shared_relation(rel).cloned()
}

/// The open fields of a tuple restricted to the given attribute positions,
/// with their current component locations.
pub(crate) fn open_fields_at(
    wsd: &Wsd,
    t: &TupleTemplate,
    positions: &[usize],
) -> Result<Vec<(usize, (usize, usize))>> {
    let mut out = Vec::new();
    for &pos in positions {
        if matches!(t.cells[pos], TemplateCell::Open) {
            let loc = wsd
                .field_loc(Field::attr(t.tid, pos as u32))
                .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {}.#{pos}", t.tid)))?;
            out.push((pos, loc));
        }
    }
    Ok(out)
}

/// All open attribute fields of a tuple.
pub(crate) fn all_open_fields(
    wsd: &Wsd,
    t: &TupleTemplate,
) -> Result<Vec<(usize, (usize, usize))>> {
    let all: Vec<usize> = (0..t.cells.len()).collect();
    open_fields_at(wsd, t, &all)
}

/// The existence location of a tuple, if its existence is open.
pub(crate) fn exists_loc(wsd: &Wsd, t: &TupleTemplate) -> Result<Option<(usize, usize)>> {
    match t.exists {
        Existence::Always => Ok(None),
        Existence::Open => wsd
            .field_loc(Field::exists(t.tid))
            .map(Some)
            .ok_or_else(|| Error::InvalidExpr(format!("unmapped ∃ of {}", t.tid))),
    }
}

/// Binds a predicate against a schema, returning also the positions of the
/// columns it references.
pub(crate) fn bind_pred(pred: &Expr, schema: &Schema) -> Result<(BoundExpr, Vec<usize>)> {
    let bound = pred.bind(schema)?;
    let positions = pred
        .columns()
        .into_iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<Vec<_>>>()?;
    Ok((bound, positions))
}

/// Evaluates a bound predicate against a partially-known tuple: `vals`
/// carries concrete values at the referenced positions (everything else is
/// NULL, which the predicate does not look at).
pub(crate) fn eval_partial(bound: &BoundExpr, arity: usize, vals: &HashMap<usize, Value>) -> Result<bool> {
    let mut full = vec![Value::Null; arity];
    for (&i, v) in vals {
        full[i] = v.clone();
    }
    bound.eval_predicate(&Tuple::new(full))
}

/// Fetches the certain values of a tuple at the given positions.
pub(crate) fn certain_values_at(t: &TupleTemplate, positions: &[usize]) -> HashMap<usize, Value> {
    let mut m = HashMap::new();
    for &pos in positions {
        if let TemplateCell::Certain(v) = &t.cells[pos] {
            m.insert(pos, v.clone());
        }
    }
    m
}

/// Builds the derived tuple's cells, aliasing the source tuple's open
/// columns: position `i` of the new tuple takes its value from position
/// `src_positions[i]` of `src`.
pub(crate) fn alias_cells(
    wsd: &mut Wsd,
    new_tid: Tid,
    src: &TupleTemplate,
    src_positions: &[usize],
) -> Result<Vec<TemplateCell>> {
    let mut cells = Vec::with_capacity(src_positions.len());
    for (new_pos, &src_pos) in src_positions.iter().enumerate() {
        match &src.cells[src_pos] {
            TemplateCell::Certain(v) => cells.push(TemplateCell::Certain(v.clone())),
            TemplateCell::Open => {
                let loc = wsd
                    .field_loc(Field::attr(src.tid, src_pos as u32))
                    .ok_or_else(|| {
                        Error::InvalidExpr(format!("unmapped field {}.#{src_pos}", src.tid))
                    })?;
                wsd.alias_field(Field::attr(new_tid, new_pos as u32), loc);
                cells.push(TemplateCell::Open);
            }
        }
    }
    Ok(cells)
}

/// Appends a fresh column for `field` computed by `f` to component
/// `comp_idx`, registering it in the field map. The field must not already
/// label a column of that component (components reject duplicate fields).
pub(crate) fn add_field_column<F>(
    wsd: &mut Wsd,
    comp_idx: usize,
    field: Field,
    f: F,
) -> Result<()>
where
    F: FnMut(RowRef<'_>) -> Cell,
{
    let comp = wsd
        .component_mut(comp_idx)
        .ok_or_else(|| Error::InvalidExpr(format!("dead component {comp_idx}")))?;
    let col = comp.num_fields();
    comp.add_column(field, f);
    wsd.alias_field(field, (comp_idx, col));
    Ok(())
}

/// Appends a fresh existence column computed by `f` to component
/// `comp_idx`, registering it as the existence field of `tid`.
pub(crate) fn add_exists_column<F>(wsd: &mut Wsd, comp_idx: usize, tid: Tid, f: F) -> Result<()>
where
    F: FnMut(RowRef<'_>) -> Cell,
{
    add_field_column(wsd, comp_idx, Field::exists(tid), f)
}

/// Re-emits a tuple unchanged into `out`: identity cells (open fields
/// aliased), existence inherited. Shared by selection's static keep path
/// and dedup.
pub(crate) fn emit_passthrough(wsd: &mut Wsd, t: &TupleTemplate, out: &str) -> Result<()> {
    let new_tid = wsd.fresh_tid();
    let all: Vec<usize> = (0..t.cells.len()).collect();
    let cells = alias_cells(wsd, new_tid, t, &all)?;
    let exists = match exists_loc(wsd, t)? {
        None => Existence::Always,
        Some(loc) => {
            wsd.alias_field(Field::exists(new_tid), loc);
            Existence::Open
        }
    };
    wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })
}

/// Whether the tuple is dead in this row of the merged component: some of
/// its columns there (attribute fields at `cols`, or the existence column)
/// holds ⊥.
pub(crate) fn dead_in_row(row: RowRef<'_>, cols: &[usize]) -> bool {
    cols.iter().any(|&c| row.is_bottom(c))
}

/// Possible values of the field of `t` at `pos` (singleton for certain
/// cells), for join/difference pruning. Reads the component column directly
/// through the field map — O(component rows), independent of relation size.
pub(crate) fn possible_values_of(wsd: &Wsd, t: &TupleTemplate, pos: usize) -> Result<Vec<Value>> {
    match &t.cells[pos] {
        TemplateCell::Certain(v) => Ok(vec![v.clone()]),
        TemplateCell::Open => {
            let (c, col) = wsd
                .field_loc(Field::attr(t.tid, pos as u32))
                .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {}.#{pos}", t.tid)))?;
            let comp = wsd
                .component(c)
                .ok_or_else(|| Error::InvalidExpr(format!("dead component {c}")))?;
            Ok(comp.possible_values_col(col))
        }
    }
}

/// True iff two possible-value sets intersect (SQL equality).
pub(crate) fn values_intersect(a: &[Value], b: &[Value]) -> bool {
    a.iter().any(|x| b.iter().any(|y| x.sql_eq(y) == Some(true)))
}

/// The hash-partitioning bucket index shared by the equi-join and the
/// chase: tuple index `i` lands in one bucket per possible non-NULL
/// value of its key column (`key_values(i)`). Tuples with multiple
/// possible key values appear in several buckets; probers deduplicate.
pub(crate) fn bucket_by_possible_values<'a, I>(
    n: usize,
    key_values: impl Fn(usize) -> I,
) -> HashMap<Value, Vec<usize>>
where
    I: IntoIterator<Item = &'a Value>,
{
    let mut buckets: HashMap<Value, Vec<usize>> = HashMap::with_capacity(n);
    for i in 0..n {
        for v in key_values(i) {
            if !v.is_null() {
                buckets.entry(v.clone()).or_default().push(i);
            }
        }
    }
    buckets
}
