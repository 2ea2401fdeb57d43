//! Shared machinery for the WSD operators, and the one per-world
//! decision kernel ([`Reads`]).

use std::collections::HashMap;
use std::sync::Arc;

use maybms_relational::{BoundExpr, Error, Expr, Result, Schema, Tuple, Value};

use crate::cell::Cell;
use crate::component::{Component, RowRef};
use crate::field::{Field, Tid};
use crate::wsd::{Existence, RelTemplate, TemplateCell, TupleTemplate, Wsd};

/// The input relation an operator reads while it rewrites the WSD: a
/// shared handle on its template, O(1). Should the operator write to
/// that same relation, the write copies it away from this handle, so
/// drop the handle first to write in place.
pub(crate) fn snapshot(wsd: &Wsd, rel: &str) -> Result<Arc<RelTemplate>> {
    wsd.shared_relation(rel).cloned()
}

/// The component location of the open field of `t` at `pos`.
fn open_loc(wsd: &Wsd, t: &TupleTemplate, pos: usize) -> Result<(usize, usize)> {
    wsd.field_loc(Field::attr(t.tid, pos as u32))
        .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {}.#{pos}", t.tid)))
}

fn dead_component(c: usize) -> Error {
    Error::InvalidExpr(format!("dead component {c}"))
}

/// The existence location of a tuple, if its existence is open.
fn exists_loc(wsd: &Wsd, t: &TupleTemplate) -> Result<Option<(usize, usize)>> {
    match t.exists {
        Existence::Always => Ok(None),
        Existence::Open => wsd
            .field_loc(Field::exists(t.tid))
            .map(Some)
            .ok_or_else(|| Error::InvalidExpr(format!("unmapped ∃ of {}", t.tid))),
    }
}

/// The existence of `new_tid`, derived from `t` and existing exactly
/// where `t` does: `t`'s ∃ field aliased, or `Always`.
pub(crate) fn inherit_exists(wsd: &mut Wsd, t: &TupleTemplate, new_tid: Tid) -> Result<Existence> {
    Ok(match exists_loc(wsd, t)? {
        None => Existence::Always,
        Some(loc) => {
            wsd.alias_field(Field::exists(new_tid), loc);
            Existence::Open
        }
    })
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

/// Positions of `t`'s open fields whose column holds ⊥ in some row. Such
/// a ⊥ marks the tuple deleted, so whoever decides where `t` exists must
/// read these fields too.
pub(crate) fn marker_positions(wsd: &Wsd, t: &TupleTemplate) -> Result<Vec<usize>> {
    let mut out = Vec::new();
    for (pos, cell) in t.cells.iter().enumerate() {
        if matches!(cell, TemplateCell::Open) {
            let (c, col) = open_loc(wsd, t, pos)?;
            if wsd.component(c).ok_or_else(|| dead_component(c))?.column_has_bottom(col) {
                out.push(pos);
            }
        }
    }
    Ok(out)
}

/// Builds the derived tuple's cells, aliasing the source tuple's open
/// columns: position `offset + i` of tuple `new_tid` takes its value from
/// the `i`-th of `src_positions` of `src`.
pub(crate) fn alias_cells(
    wsd: &mut Wsd,
    new_tid: Tid,
    src: &TupleTemplate,
    src_positions: impl IntoIterator<Item = usize>,
    offset: usize,
) -> Result<Vec<TemplateCell>> {
    let mut cells = Vec::with_capacity(src.cells.len());
    for (i, src_pos) in src_positions.into_iter().enumerate() {
        match &src.cells[src_pos] {
            TemplateCell::Certain(v) => cells.push(TemplateCell::Certain(v.clone())),
            TemplateCell::Open => {
                let loc = open_loc(wsd, src, src_pos)?;
                wsd.alias_field(Field::attr(new_tid, (offset + i) as u32), loc);
                cells.push(TemplateCell::Open);
            }
        }
    }
    Ok(cells)
}

/// Re-emits a tuple unchanged into `out`: identity cells (open fields
/// aliased), existence inherited.
pub(crate) fn emit_passthrough(wsd: &mut Wsd, t: &TupleTemplate, out: &str) -> Result<()> {
    let new_tid = wsd.fresh_tid();
    let cells = alias_cells(wsd, new_tid, t, 0..t.cells.len(), 0)?;
    let exists = inherit_exists(wsd, t, new_tid)?;
    wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })
}

/// The ∃ cell of a row in which a derived tuple does or does not exist.
pub(crate) fn exists_cell(exists: bool) -> Cell {
    if exists {
        Cell::Val(Value::Bool(true))
    } else {
        Cell::Bottom
    }
}

/// Possible values of the field of `t` at `pos` (singleton for certain
/// cells), for join/difference pruning. Reads the component column directly
/// through the field map — O(component rows), independent of relation size.
pub(crate) fn possible_values_of(wsd: &Wsd, t: &TupleTemplate, pos: usize) -> Result<Vec<Value>> {
    match &t.cells[pos] {
        TemplateCell::Certain(v) => Ok(vec![v.clone()]),
        TemplateCell::Open => {
            let (c, col) = open_loc(wsd, t, pos)?;
            Ok(wsd.component(c).ok_or_else(|| dead_component(c))?.possible_values_col(col))
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

/// One tuple a per-world decision reads.
pub(crate) struct Part<'a> {
    t: &'a TupleTemplate,
    /// The positions of `t` the decision reads.
    positions: &'a [usize],
    /// Where `t`'s position 0 lands in the row buffer.
    offset: usize,
    /// Whether `t`'s ∃ field is read.
    exists: bool,
    /// Whether the decision is also made where `t` is absent.
    optional: bool,
}

impl<'a> Part<'a> {
    pub(crate) fn new(t: &'a TupleTemplate, positions: &'a [usize], offset: usize) -> Part<'a> {
        Part { t, positions, offset, exists: true, optional: false }
    }

    /// Reads the values only, not the ∃ field: for `UPDATE`, whose new
    /// tuple keeps the old ∃ field and so must not merge it.
    pub(crate) fn values_only(self) -> Part<'a> {
        Part { exists: false, ..self }
    }

    /// A tuple whose absence the decision reads through [`Row::live`]
    /// instead of being skipped: difference's candidates.
    pub(crate) fn optional(self) -> Part<'a> {
        Part { optional: true, ..self }
    }

    fn open(&self) -> impl Iterator<Item = usize> + 'a {
        let t = self.t;
        self.positions.iter().copied().filter(move |&p| matches!(t.cells[p], TemplateCell::Open))
    }

    /// The location of the ∃ field, if read and open.
    fn exists_loc(&self, wsd: &Wsd) -> Result<Option<(usize, usize)>> {
        if self.exists {
            exists_loc(wsd, self.t)
        } else {
            Ok(None)
        }
    }
}

/// Whether a decision over `parts` can differ between worlds: some read
/// position is open, or some read ∃ field is.
pub(crate) fn varies(parts: &[Part<'_>]) -> bool {
    parts
        .iter()
        .any(|p| p.open().next().is_some() || (p.exists && p.t.exists == Existence::Open))
}

/// The value `decide` has in every world where the parts exist, settled
/// on possible values without merging; `None` when it varies, or when it
/// fails on a read of an open field (the kernel then applies the error
/// policy). With no open read it decides once, on the certain values,
/// and returns the decision's error.
///
/// `decide` reads the parts' values in `buf`, a row buffer the caller
/// keeps across tuples: only the read positions hold this tuple's values
/// ([`load_certain`]). It runs on the combinations of the open reads'
/// [`choices`], ∃ fields not read, until two combinations disagree. That
/// is never more rows than merging them.
pub(crate) fn settled(
    wsd: &Wsd,
    parts: &[Part<'_>],
    buf: &mut Tuple,
    mut decide: impl FnMut(&Tuple) -> Result<bool>,
) -> Result<Option<bool>> {
    load_certain(parts, buf);
    if parts.iter().all(|p| p.open().next().is_none()) {
        return decide(buf).map(Some);
    }
    settle_open(wsd, parts, buf, &mut decide)
}

/// [`settled`] with an open read. Out of line: the certain path above
/// runs for every tuple of a selection, and stays small.
#[inline(never)]
fn settle_open(
    wsd: &Wsd,
    parts: &[Part<'_>],
    buf: &mut Tuple,
    decide: &mut dyn FnMut(&Tuple) -> Result<bool>,
) -> Result<Option<bool>> {
    let choices = choices(wsd, parts, false)?;
    let mut seen = None;
    let done = walk(&choices, buf, |row, _| match decide(row) {
        Ok(v) if seen.is_none_or(|s| s == v) => {
            seen = Some(v);
            true
        }
        _ => false,
    });
    Ok(seen.filter(|_| done))
}

/// One component that a read of template tuples touches.
pub(crate) struct Choices<'w> {
    pub(crate) id: usize,
    pub(crate) comp: &'w Component,
    /// `(buffer index, column)` per open read.
    pub(crate) reads: Vec<(usize, usize)>,
    /// Every column read, ∃ fields included: rows holding ⊥ in one of
    /// them are left out of `rows`.
    pub(crate) live: Vec<usize>,
    /// One row per distinct projection onto `reads`, with the summed
    /// probability of the rows it stands for.
    pub(crate) rows: Vec<(usize, f64)>,
}

/// The one enumerator of what template tuples can be: per component
/// holding an open read of `parts` (or, with `exists`, a read ∃ field),
/// in component order, the distinct projections of its rows onto the
/// open reads. Rows where a read cell or ∃ field is ⊥ are left out.
/// Components are independent, so every combination of one projection
/// per component occurs in some world, with the product of their
/// probabilities.
pub(crate) fn choices<'w>(
    wsd: &'w Wsd,
    parts: &[Part<'_>],
    exists: bool,
) -> Result<Vec<Choices<'w>>> {
    let mut reads = Vec::new(); // (component, column, buffer index; none for an ∃ field)
    for p in parts {
        for pos in p.open() {
            let (c, col) = open_loc(wsd, p.t, pos)?;
            reads.push((c, col, Some(p.offset + pos)));
        }
        if exists {
            reads.extend(p.exists_loc(wsd)?.map(|(c, col)| (c, col, None)));
        }
    }
    reads.sort_unstable();
    reads
        .chunk_by(|x, y| x.0 == y.0)
        .map(|group| {
            let id = group[0].0;
            let comp = wsd.component(id).ok_or_else(|| dead_component(id))?;
            let reads: Vec<_> = group.iter().filter_map(|&(_, col, at)| Some((at?, col))).collect();
            let cols: Vec<usize> = reads.iter().map(|r| r.1).collect();
            let live: Vec<usize> = group.iter().map(|g| g.1).collect();
            let rows = distinct_rows(comp, &cols, &live);
            Ok(Choices { id, comp, reads, live, rows })
        })
        .collect()
}

/// The distinct projections of `comp`'s rows onto `cols`, leaving out
/// rows that hold ⊥ in one of `live`: one representative row each, with
/// the summed probability of the rows it stands for, in the order of
/// their interned codes.
pub(crate) fn distinct_rows(comp: &Component, cols: &[usize], live: &[usize]) -> Vec<(usize, f64)> {
    let key = |r: usize| cols.iter().map(move |&c| comp.code(r, c));
    let mut rows: Vec<usize> = (0..comp.num_rows())
        .filter(|&r| live.iter().all(|&c| !comp.cell(r, c).is_bottom()))
        .collect();
    rows.sort_by(|&a, &b| key(a).cmp(key(b)));
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(rows.len());
    for r in rows {
        match out.last_mut() {
            Some((rep, p)) if key(*rep).eq(key(r)) => *p += comp.prob(r),
            _ => out.push((r, comp.prob(r))),
        }
    }
    out
}

/// Walks every combination of `choices`, odometer-style: writes its
/// values into `buf` and calls `visit` with the row and its probability,
/// until `visit` returns false. Returns whether the walk ran to the end.
pub(crate) fn walk(
    choices: &[Choices<'_>],
    buf: &mut Tuple,
    mut visit: impl FnMut(&Tuple, f64) -> bool,
) -> bool {
    if choices.iter().any(|ch| ch.rows.is_empty()) {
        return true;
    }
    let mut at = vec![0; choices.len()];
    loop {
        let mut p = 1.0;
        for (ch, &i) in choices.iter().zip(&at) {
            let (row, q) = ch.rows[i];
            p *= q;
            for &(pos, col) in &ch.reads {
                if let Cell::Val(v) = ch.comp.cell(row, col) {
                    buf.values_mut()[pos].clone_from(v);
                }
            }
        }
        if !visit(buf, p) {
            return false;
        }
        // the next combination; none after the last
        let Some(k) = at.iter().zip(choices).position(|(&i, ch)| i + 1 < ch.rows.len()) else {
            return true;
        };
        at[..k].fill(0);
        at[k] += 1;
    }
}

/// Writes the parts' certain values at their read positions into `buf`,
/// first widened with NULLs to the parts' full width if narrower. Other
/// positions keep what they held.
fn load_certain(parts: &[Part<'_>], buf: &mut Tuple) {
    let width = parts.iter().map(|p| p.offset + p.t.cells.len()).max().unwrap_or(0);
    if buf.arity() < width {
        *buf = Tuple::new(vec![Value::Null; width]);
    }
    let vals = buf.values_mut();
    for p in parts {
        for &pos in p.positions {
            if let TemplateCell::Certain(v) = &p.t.cells[pos] {
                vals[p.offset + pos].clone_from(v);
            }
        }
    }
}


/// One row of the merged component, as a decision sees it.
pub(crate) struct Row<'r> {
    /// Every part's values at its read positions, at its offset.
    pub(crate) vals: &'r Tuple,
    /// Per part, whether the tuple exists in this row.
    pub(crate) live: &'r [bool],
}

/// Where one part's reads live in the merged component.
struct PartCols {
    /// `(buffer index, column)` per open read position.
    open: Vec<(usize, usize)>,
    /// The ∃ column, if read and open.
    exists: Option<usize>,
    optional: bool,
}

/// The per-world decision kernel (module docs of [`crate::algebra`]):
/// the merged component of the parts' reads, and a row buffer holding
/// every part's values.
///
/// A part is absent in a row where one of its read columns is ⊥. Where
/// a part that is not [`Part::optional`] is absent, nothing is decided:
/// the row gets ⊥, or is kept by [`Reads::delete_rows`]. Elsewhere the
/// decision runs, and the first error it raises is the statement's.
pub(crate) struct Reads {
    comp: usize,
    /// Distinct components merged into `comp`.
    merged: usize,
    parts: Vec<PartCols>,
    buf: Tuple,
    live: Vec<bool>,
}

impl Reads {
    /// Merges the components the parts read. Fails when they read
    /// nothing that varies by world (see [`varies`]).
    pub(crate) fn merge(wsd: &mut Wsd, parts: &[Part<'_>]) -> Result<Reads> {
        let mut comps = Vec::new();
        for p in parts {
            for pos in p.open() {
                comps.push(open_loc(wsd, p.t, pos)?.0);
            }
            comps.extend(p.exists_loc(wsd)?.map(|(c, _)| c));
        }
        comps.sort_unstable();
        comps.dedup();
        let comp = wsd.merge_components(&comps)?;
        let mut cols = Vec::with_capacity(parts.len());
        for p in parts {
            let open = p
                .open()
                .map(|pos| Ok((p.offset + pos, open_loc(wsd, p.t, pos)?.1)))
                .collect::<Result<_>>()?;
            let exists = p.exists_loc(wsd)?.map(|(_, col)| col);
            cols.push(PartCols { open, exists, optional: p.optional });
        }
        let mut buf = Tuple::new(Vec::new());
        load_certain(parts, &mut buf);
        Ok(Reads { comp, merged: comps.len(), parts: cols, buf, live: vec![false; parts.len()] })
    }

    /// The merged component.
    pub(crate) fn component(&self) -> usize {
        self.comp
    }

    /// Merges performed: components merged, minus the one they became.
    pub(crate) fn merges(&self) -> usize {
        self.merged - 1
    }

    /// Loads `row` into the buffer; false where a needed part is absent.
    fn load(&mut self, row: RowRef<'_>) -> bool {
        let vals = self.buf.values_mut();
        for (p, live) in self.parts.iter().zip(&mut self.live) {
            *live = p.exists.is_none_or(|c| !row.is_bottom(c))
                && p.open.iter().all(|&(at, col)| match row.cell(col) {
                    Cell::Val(v) => {
                        vals[at].clone_from(v);
                        true
                    }
                    Cell::Bottom => false,
                });
            if !*live && !p.optional {
                return false;
            }
        }
        true
    }

    /// `decide` on `row`, or `None` where a needed part is absent or an
    /// earlier row already failed; a failure lands in `err`.
    fn decide<T>(
        &mut self,
        row: RowRef<'_>,
        err: &mut Option<Error>,
        decide: &mut impl FnMut(&Row<'_>) -> Result<T>,
    ) -> Option<T> {
        if err.is_some() || !self.load(row) {
            return None;
        }
        decide(&Row { vals: &self.buf, live: &self.live }).map_err(|e| *err = Some(e)).ok()
    }

    /// Appends `field`'s column to the merged component: `decide`'s cell
    /// per row, ⊥ where a needed part is absent.
    pub(crate) fn write_column(
        &mut self,
        wsd: &mut Wsd,
        field: Field,
        mut decide: impl FnMut(&Row<'_>) -> Result<Cell>,
    ) -> Result<()> {
        let comp = wsd.component_mut(self.comp).ok_or_else(|| dead_component(self.comp))?;
        let col = comp.num_fields();
        let mut err = None;
        comp.add_column(field, |row| {
            self.decide(row, &mut err, &mut decide).unwrap_or(Cell::Bottom)
        });
        wsd.alias_field(field, (self.comp, col));
        err.map_or(Ok(()), Err)
    }

    /// Deletes the rows of the merged component where every needed part
    /// exists and `violates` holds; returns how many and their mass.
    pub(crate) fn delete_rows(
        &mut self,
        wsd: &mut Wsd,
        mut violates: impl FnMut(&Row<'_>) -> Result<bool>,
    ) -> Result<(usize, f64)> {
        let comp = wsd.component_mut(self.comp).ok_or_else(|| dead_component(self.comp))?;
        let before = comp.num_rows();
        let mut err = None;
        let mass = comp.retain_rows(|row| self.decide(row, &mut err, &mut violates) != Some(true));
        err.map_or(Ok((before - comp.num_rows(), mass)), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_relational::ColumnType;
    use maybms_worldset::OrSetCell;

    #[test]
    fn possible_values_of_reads_certain_and_open_fields() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Str)]))
            .unwrap();
        w.push_orset(
            "r",
            vec![
                OrSetCell::weighted(vec![(Value::Int(1), 0.4), (Value::Int(2), 0.6)]).unwrap(),
                OrSetCell::certain("x"),
            ],
        )
        .unwrap();
        let t = w.relation("r").unwrap().tuples[0].clone();
        assert_eq!(possible_values_of(&w, &t, 0).unwrap(), vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(possible_values_of(&w, &t, 1).unwrap(), vec![Value::str("x")]);
    }
}
