//! Components: the factor relations of a world-set decomposition.
//!
//! "The above WSD is defined as a relational product of five relations,
//! hereafter called components. Each component defines values for a set of
//! fields, and a world is obtained as a combination of one tuple from each
//! of the components." (paper §2)
//!
//! # Columnar storage
//!
//! Components are stored **column-major** with a per-column dictionary of
//! interned cells: `Column { dict, codes }` keeps each distinct [`Cell`]
//! once (in first-occurrence order) and one `u32` code per row. The hot
//! normalization and factorization paths (⊥-propagation, constant
//! detection, row dedup, marginal computation) scan contiguous code slices
//! instead of cloning row `Vec<Cell>`s, and row equality within a column
//! reduces to `u32` equality because interning is exact. [`CompRow`] is
//! retained as a *materialized* row view for construction, display and
//! tests; hot paths use [`Component::cell`] / [`Component::code`] /
//! [`RowRef`] instead.

use std::collections::HashMap;
use std::fmt;

use maybms_relational::{Error, Result, Value};

use crate::cell::Cell;
use crate::field::Field;

/// One materialized row of a component: a cell per field plus the row's
/// probability (the probabilistic extension of WSDs: "simply extending each
/// component with a special probability column"). Construction/debug view;
/// the component itself stores columns.
#[derive(Debug, Clone, PartialEq)]
pub struct CompRow {
    pub cells: Vec<Cell>,
    pub p: f64,
}

impl CompRow {
    pub fn new(cells: Vec<Cell>, p: f64) -> CompRow {
        CompRow { cells, p }
    }
}

/// One interned column: `dict[codes[row]]` is the cell of `row`.
#[derive(Debug, Clone, PartialEq)]
struct Column {
    dict: Vec<Cell>,
    codes: Vec<u32>,
}

impl Column {
    fn with_capacity(rows: usize) -> Column {
        Column { dict: Vec::new(), codes: Vec::with_capacity(rows) }
    }

    fn intern(&mut self, cell: Cell, lookup: &mut HashMap<Cell, u32>) -> u32 {
        match lookup.get(&cell) {
            Some(&c) => c,
            None => {
                let c = self.dict.len() as u32;
                lookup.insert(cell.clone(), c);
                self.dict.push(cell);
                c
            }
        }
    }

    /// Whether some dictionary entry is referenced by no code.
    fn has_orphans(&self) -> bool {
        let mut referenced = vec![false; self.dict.len()];
        for &code in &self.codes {
            referenced[code as usize] = true;
        }
        referenced.contains(&false)
    }

    /// Re-interns the whole column from an iterator of kept row indices,
    /// dropping dictionary entries no longer referenced.
    fn compact(&mut self, kept: &[usize]) {
        let mut dict = Vec::new();
        let mut remap: Vec<u32> = vec![u32::MAX; self.dict.len()];
        let mut codes = Vec::with_capacity(kept.len());
        for &r in kept {
            let old = self.codes[r] as usize;
            if remap[old] == u32::MAX {
                remap[old] = dict.len() as u32;
                dict.push(self.dict[old].clone());
            }
            codes.push(remap[old]);
        }
        self.dict = dict;
        self.codes = codes;
    }
}

/// A component: an ordered set of field columns and a set of weighted rows,
/// stored column-major with interned cells.
///
/// Invariants (checked by [`Component::validate`]):
/// * every column has exactly one code per row,
/// * probabilities are positive and sum to 1 (±1e-6),
/// * fields are distinct.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    fields: Vec<Field>,
    cols: Vec<Column>,
    probs: Vec<f64>,
    /// Arity of the worst-offending input row when [`Component::new`] was
    /// fed rows not matching the field count; `validate` reports it. The
    /// columnar store itself is always rectangular.
    ragged_arity: Option<usize>,
}

/// A borrowed view of one component row — what mutation/evaluation
/// closures receive instead of a materialized [`CompRow`].
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    comp: &'a Component,
    row: usize,
}

impl<'a> RowRef<'a> {
    pub fn index(&self) -> usize {
        self.row
    }
    pub fn cell(&self, col: usize) -> &'a Cell {
        self.comp.cell(self.row, col)
    }
    pub fn is_bottom(&self, col: usize) -> bool {
        self.comp.cell(self.row, col).is_bottom()
    }
    pub fn p(&self) -> f64 {
        self.comp.probs[self.row]
    }
}

impl Component {
    pub fn new(fields: Vec<Field>, rows: Vec<CompRow>) -> Component {
        let mut cols: Vec<Column> = (0..fields.len())
            .map(|_| Column::with_capacity(rows.len()))
            .collect();
        let mut lookups: Vec<HashMap<Cell, u32>> = vec![HashMap::new(); fields.len()];
        let mut probs = Vec::with_capacity(rows.len());
        let mut ragged_arity = None;
        for r in rows {
            if r.cells.len() != fields.len() {
                ragged_arity = Some(r.cells.len());
            }
            for (i, cell) in r.cells.into_iter().enumerate() {
                if let Some(col) = cols.get_mut(i) {
                    let lookup = &mut lookups[i];
                    let code = col.intern(cell, lookup);
                    col.codes.push(code);
                }
            }
            probs.push(r.p);
        }
        // Tolerate under-length rows (validate() reports them): pad with ⊥
        // so the columnar shape stays rectangular.
        let n = probs.len();
        for (col, lookup) in cols.iter_mut().zip(&mut lookups) {
            while col.codes.len() < n {
                let code = col.intern(Cell::Bottom, lookup);
                col.codes.push(code);
            }
        }
        Component { fields, cols, probs, ragged_arity }
    }

    /// Rebuilds a component from its raw columnar parts — the snapshot
    /// codec's constructor. `next_col` yields one `(dictionary, codes)`
    /// column per field, in order, straight into the component's column
    /// vector. Column shapes and code ranges are checked here (a corrupt
    /// snapshot must not panic later); probabilistic invariants are left
    /// to [`Component::validate`].
    pub(crate) fn from_parts(
        fields: Vec<Field>,
        probs: Vec<f64>,
        mut next_col: impl FnMut() -> Result<(Vec<Cell>, Vec<u32>)>,
    ) -> Result<Component> {
        let mut cols = Vec::with_capacity(fields.len());
        for _ in 0..fields.len() {
            let (dict, codes) = next_col()?;
            if codes.len() != probs.len() {
                return Err(Error::Storage(format!(
                    "column holds {} codes for {} rows",
                    codes.len(),
                    probs.len()
                )));
            }
            if let Some(&bad) = codes.iter().find(|&&c| c as usize >= dict.len()) {
                return Err(Error::Storage(format!(
                    "code {bad} out of range for a {}-entry dictionary",
                    dict.len()
                )));
            }
            cols.push(Column { dict, codes });
        }
        Ok(Component { fields, cols, probs, ragged_arity: None })
    }

    /// The raw columnar parts of one column: `(dictionary, codes)` — what
    /// the snapshot codec serializes. Paired with [`Component::from_parts`].
    pub(crate) fn col_parts(&self, col: usize) -> (&[Cell], &[u32]) {
        let c = &self.cols[col];
        (&c.dict, &c.codes)
    }

    /// A single-field component from weighted alternatives — the shape every
    /// or-set field decomposes into.
    pub fn singleton(field: Field, alternatives: Vec<(Cell, f64)>) -> Component {
        let mut col = Column::with_capacity(alternatives.len());
        let mut lookup = HashMap::new();
        let mut probs = Vec::with_capacity(alternatives.len());
        for (cell, p) in alternatives {
            let code = col.intern(cell, &mut lookup);
            col.codes.push(code);
            probs.push(p);
        }
        Component { fields: vec![field], cols: vec![col], probs, ragged_arity: None }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    pub fn num_rows(&self) -> usize {
        self.probs.len()
    }

    /// The cell at (`row`, `col`) — O(1), two indexed loads.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> &Cell {
        let c = &self.cols[col];
        &c.dict[c.codes[row] as usize]
    }

    /// The interned code at (`row`, `col`). Codes are comparable for cell
    /// equality *within one column of one component*.
    #[inline]
    pub fn code(&self, row: usize, col: usize) -> u32 {
        self.cols[col].codes[row]
    }

    /// The interned code column — contiguous, one `u32` per row.
    #[inline]
    pub fn codes(&self, col: usize) -> &[u32] {
        &self.cols[col].codes
    }

    /// The distinct cells of a column, in first-occurrence order. May
    /// include cells of deleted rows until the next compaction.
    #[inline]
    pub fn dict(&self, col: usize) -> &[Cell] {
        &self.cols[col].dict
    }

    #[inline]
    pub fn prob(&self, row: usize) -> f64 {
        self.probs[row]
    }

    #[inline]
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Overwrites one row's probability (test/tooling hook).
    pub fn set_prob(&mut self, row: usize, p: f64) {
        self.probs[row] = p;
    }

    /// Borrowed view of one row.
    #[inline]
    pub fn row_ref(&self, row: usize) -> RowRef<'_> {
        RowRef { comp: self, row }
    }

    /// Iterates borrowed row views.
    pub fn iter_rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.num_rows()).map(move |row| RowRef { comp: self, row })
    }

    /// Materializes one row (cold paths only).
    pub fn row(&self, row: usize) -> CompRow {
        CompRow {
            cells: (0..self.num_fields()).map(|c| self.cell(row, c).clone()).collect(),
            p: self.probs[row],
        }
    }

    /// Materializes all rows — construction/display/test convenience; hot
    /// paths must use [`Component::cell`] / [`Component::codes`] instead.
    pub fn rows(&self) -> Vec<CompRow> {
        (0..self.num_rows()).map(|r| self.row(r)).collect()
    }

    /// Column index of a field within this component.
    pub fn col_of(&self, field: Field) -> Option<usize> {
        self.fields.iter().position(|&f| f == field)
    }

    /// Structural and probabilistic invariants.
    pub fn validate(&self) -> Result<()> {
        for (i, f) in self.fields.iter().enumerate() {
            if self.fields[i + 1..].contains(f) {
                return Err(Error::InvalidExpr(format!("duplicate field {f} in component")));
            }
        }
        if self.probs.is_empty() {
            return Err(Error::InvalidExpr("component has no rows".into()));
        }
        if let Some(arity) = self.ragged_arity {
            return Err(Error::InvalidExpr(format!(
                "row arity {arity} does not match field count {}",
                self.fields.len()
            )));
        }
        for col in &self.cols {
            if col.codes.len() != self.probs.len() {
                return Err(Error::InvalidExpr(format!(
                    "column height {} does not match row count {}",
                    col.codes.len(),
                    self.probs.len()
                )));
            }
        }
        for &p in &self.probs {
            if p <= 0.0 {
                return Err(Error::InvalidExpr(format!("non-positive row probability {p}")));
            }
        }
        let total: f64 = self.probs.iter().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(Error::InvalidExpr(format!(
                "component probabilities sum to {total}, expected 1"
            )));
        }
        Ok(())
    }

    /// Relational product of two components: the concatenated field lists
    /// and the cross product of rows with multiplied probabilities. This is
    /// how correlations are *introduced* — e.g. when a selection predicate
    /// spans fields stored in different components. Columnar: each left
    /// code column is repeated, each right column tiled; dictionaries are
    /// shared, no cell is cloned per row pair.
    pub fn product(&self, other: &Component) -> Component {
        let (n, m) = (self.num_rows(), other.num_rows());
        let mut cols = Vec::with_capacity(self.cols.len() + other.cols.len());
        for c in &self.cols {
            let mut codes = Vec::with_capacity(n * m);
            for &code in &c.codes {
                codes.resize(codes.len() + m, code);
            }
            cols.push(Column { dict: c.dict.clone(), codes });
        }
        for c in &other.cols {
            let mut codes = Vec::with_capacity(n * m);
            for _ in 0..n {
                codes.extend_from_slice(&c.codes);
            }
            cols.push(Column { dict: c.dict.clone(), codes });
        }
        let mut fields = self.fields.clone();
        fields.extend_from_slice(&other.fields);
        let mut probs = Vec::with_capacity(n * m);
        for &a in &self.probs {
            for &b in &other.probs {
                probs.push(a * b);
            }
        }
        Component { fields, cols, probs, ragged_arity: None }
    }

    /// Appends a new field column, with the cell for each existing row
    /// computed by `f`.
    pub fn add_column<F>(&mut self, field: Field, mut f: F)
    where
        F: FnMut(RowRef<'_>) -> Cell,
    {
        let cells: Vec<Cell> = (0..self.num_rows()).map(|r| f(self.row_ref(r))).collect();
        let mut col = Column::with_capacity(cells.len());
        let mut lookup = HashMap::new();
        for cell in cells {
            let code = col.intern(cell, &mut lookup);
            col.codes.push(code);
        }
        self.fields.push(field);
        self.cols.push(col);
    }

    /// Keeps only the given columns (by index, in the given order), merging
    /// rows that become identical by summing their probabilities. Runs in
    /// O(rows · |keep|) using interned codes as the merge key.
    pub fn project_columns(&self, keep: &[usize]) -> Component {
        let fields: Vec<Field> = keep.iter().map(|&i| self.fields[i]).collect();
        let mut first_of: HashMap<Vec<u32>, usize> = HashMap::with_capacity(self.num_rows());
        let mut kept_rows: Vec<usize> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();
        let mut key = Vec::with_capacity(keep.len());
        for r in 0..self.num_rows() {
            key.clear();
            key.extend(keep.iter().map(|&c| self.cols[c].codes[r]));
            match first_of.get(&key) {
                Some(&slot) => probs[slot] += self.probs[r],
                None => {
                    first_of.insert(key.clone(), probs.len());
                    kept_rows.push(r);
                    probs.push(self.probs[r]);
                }
            }
        }
        let cols: Vec<Column> = keep
            .iter()
            .map(|&c| {
                let mut col = self.cols[c].clone();
                col.compact(&kept_rows);
                col
            })
            .collect();
        Component { fields, cols, probs, ragged_arity: None }
    }

    /// Plans merging duplicate rows (summing probabilities) and dropping
    /// rows with probability below `eps` (renormalizing the remainder):
    /// the rows to keep, first occurrences, with their new probabilities,
    /// or `None` when nothing would change. Single hash pass over interned
    /// codes; read-only, so a shared component is copied only when the
    /// plan changes it ([`Component::apply_dedup`]).
    pub(crate) fn dedup_plan(&self, eps: f64) -> Option<(Vec<usize>, Vec<f64>)> {
        let n = self.num_rows();
        let mut first_of: HashMap<Vec<u32>, usize> = HashMap::with_capacity(n);
        let mut kept_rows: Vec<usize> = Vec::new();
        let mut probs: Vec<f64> = Vec::new();
        for r in 0..n {
            let key: Vec<u32> = self.cols.iter().map(|c| c.codes[r]).collect();
            match first_of.get(&key) {
                Some(&slot) => probs[slot] += self.probs[r],
                None => {
                    first_of.insert(key, probs.len());
                    kept_rows.push(r);
                    probs.push(self.probs[r]);
                }
            }
        }
        if kept_rows.len() == n && probs.iter().all(|&p| p > eps) {
            return None;
        }
        // Drop below-eps rows, then renormalize.
        let (kept_rows, mut probs): (Vec<usize>, Vec<f64>) = kept_rows
            .into_iter()
            .zip(probs)
            .filter(|&(_, p)| p > eps)
            .unzip();
        let total: f64 = probs.iter().sum();
        if total > 0.0 && (total - 1.0).abs() > 1e-12 {
            for p in &mut probs {
                *p /= total;
            }
        }
        Some((kept_rows, probs))
    }

    /// Applies a [`Component::dedup_plan`].
    pub(crate) fn apply_dedup(&mut self, (kept_rows, probs): (Vec<usize>, Vec<f64>)) {
        for col in &mut self.cols {
            col.compact(&kept_rows);
        }
        self.probs = probs;
    }

    /// Retains the rows `keep` approves (by row view), compacting the
    /// dictionaries. Returns the probability mass removed. Used by the
    /// chase to delete violating rows.
    pub fn retain_rows<F>(&mut self, mut keep: F) -> f64
    where
        F: FnMut(RowRef<'_>) -> bool,
    {
        let kept_rows: Vec<usize> =
            (0..self.num_rows()).filter(|&r| keep(self.row_ref(r))).collect();
        if kept_rows.len() == self.num_rows() {
            return 0.0;
        }
        let mut removed = 0.0;
        let mut kept_iter = kept_rows.iter().peekable();
        for r in 0..self.num_rows() {
            if kept_iter.peek() == Some(&&r) {
                kept_iter.next();
            } else {
                removed += self.probs[r];
            }
        }
        for col in &mut self.cols {
            col.compact(&kept_rows);
        }
        self.probs = kept_rows.iter().map(|&r| self.probs[r]).collect();
        removed
    }

    /// Garbage-collects dictionary entries no live code references.
    /// ⊥-propagation ([`Component::set_bottom`]) and merges of components
    /// whose dictionaries already carried garbage leave *orphaned* interned
    /// cells behind — without this, dictionaries only grow. Surviving
    /// entries are re-numbered in first-occurrence order of the live codes
    /// (the order [`Component::possible_values`] observes is unchanged,
    /// since it walks codes, not the dictionary). Returns true iff any
    /// dictionary shrank.
    pub fn compact(&mut self) -> bool {
        let all_rows: Vec<usize> = (0..self.num_rows()).collect();
        let mut changed = false;
        // columns with nothing orphaned keep their codes and order as-is
        for col in self.cols.iter_mut().filter(|c| c.has_orphans()) {
            // Re-intern keeping every row: same remap logic the row-subset
            // paths (retain/dedup/project) already use.
            col.compact(&all_rows);
            changed = true;
        }
        changed
    }

    /// Whether [`Component::compact`] would change anything — a read-only
    /// check, so a shared component is copied only when it has garbage.
    pub(crate) fn has_garbage(&self) -> bool {
        self.cols.iter().any(Column::has_orphans)
    }

    /// Rescales every probability by `1/total` (chase renormalization).
    pub fn renormalize(&mut self) {
        let total: f64 = self.probs.iter().sum();
        if total > 0.0 {
            for p in &mut self.probs {
                *p /= total;
            }
        }
    }

    /// Overwrites the cell at (`row`, `col`) with ⊥ (⊥-propagation).
    /// Returns true iff the cell changed. The displaced cell may linger in
    /// the dictionary until the next compaction; all scans go through live
    /// codes, so stale dictionary entries are never observed.
    pub fn set_bottom(&mut self, row: usize, col: usize) -> bool {
        let c = &mut self.cols[col];
        let bot = match c.dict.iter().position(Cell::is_bottom) {
            Some(b) => b as u32,
            None => {
                c.dict.push(Cell::Bottom);
                (c.dict.len() - 1) as u32
            }
        };
        if c.codes[row] == bot {
            return false;
        }
        c.codes[row] = bot;
        true
    }

    /// Whether any live cell of a column is ⊥.
    pub fn column_has_bottom(&self, col: usize) -> bool {
        let c = &self.cols[col];
        match c.dict.iter().position(Cell::is_bottom) {
            None => false,
            Some(b) => c.codes.contains(&(b as u32)),
        }
    }

    /// Whether every cell of a column is ⊥ — O(dict) after compaction.
    pub fn column_all_bottom(&self, col: usize) -> bool {
        let c = &self.cols[col];
        // All dict entries referenced are compact except transiently; check
        // codes against the (usually tiny) set of ⊥ dict ids.
        match c.dict.iter().position(Cell::is_bottom) {
            None => false,
            Some(b) => {
                let b = b as u32;
                c.codes.iter().all(|&code| code == b)
            }
        }
    }

    /// The constant non-⊥ cell of a column, if every row holds it.
    pub fn column_constant(&self, col: usize) -> Option<&Cell> {
        let c = &self.cols[col];
        let first = *c.codes.first()?;
        if self.probs.len() > 1 && !c.codes[1..].iter().all(|&code| code == first) {
            return None;
        }
        let cell = &c.dict[first as usize];
        (!cell.is_bottom()).then_some(cell)
    }

    /// Distinct non-⊥ values appearing in the column of `field` — the
    /// possible values of that field, used for pruning in joins, difference
    /// and the chase. First-occurrence order, computed from live codes.
    pub fn possible_values(&self, field: Field) -> Vec<Value> {
        let Some(col) = self.col_of(field) else {
            return Vec::new();
        };
        self.possible_values_col(col)
    }

    /// As [`Component::possible_values`], by column index.
    pub fn possible_values_col(&self, col: usize) -> Vec<Value> {
        let c = &self.cols[col];
        let mut seen = vec![false; c.dict.len()];
        let mut out: Vec<Value> = Vec::new();
        for &code in &c.codes {
            if !seen[code as usize] {
                seen[code as usize] = true;
                if let Cell::Val(v) = &c.dict[code as usize] {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Estimated bytes used by this component's data in the columnar
    /// layout: per column the interned dictionary cells plus one `u32` code
    /// per row, plus the probability column. Comparable with
    /// [`maybms_relational::Relation::size_bytes`] — the E1 overhead metric.
    pub fn size_bytes(&self) -> usize {
        let cells: usize = self
            .cols
            .iter()
            .map(|c| {
                c.dict.iter().map(Cell::size_bytes).sum::<usize>()
                    + c.codes.len() * std::mem::size_of::<u32>()
            })
            .sum();
        cells + self.probs.len() * std::mem::size_of::<f64>()
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let headers: Vec<String> = self.fields.iter().map(|x| x.to_string()).collect();
        writeln!(f, "{} | p", headers.join(" | "))?;
        for r in 0..self.num_rows() {
            let cells: Vec<String> =
                (0..self.num_fields()).map(|c| self.cell(r, c).to_string()).collect();
            writeln!(f, "{} | {:.4}", cells.join(" | "), self.probs[r])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Tid;
    use maybms_relational::Value;

    fn f(t: u64, a: u32) -> Field {
        Field::attr(Tid(t), a)
    }

    fn val(s: &str) -> Cell {
        Cell::Val(Value::str(s))
    }

    /// The paper's first component:
    /// r1.Diagnosis, r1.Test with rows (pregnancy, ultrasound; 0.4) and
    /// (hypothyroidism, TSH; 0.6).
    fn paper_component() -> Component {
        Component::new(
            vec![f(1, 0), f(1, 1)],
            vec![
                CompRow::new(vec![val("pregnancy"), val("ultrasound")], 0.4),
                CompRow::new(vec![val("hypothyroidism"), val("TSH")], 0.6),
            ],
        )
    }

    #[test]
    fn validate_accepts_paper_component() {
        paper_component().validate().unwrap();
    }

    #[test]
    fn columnar_round_trip() {
        let c = paper_component();
        assert_eq!(c.cell(0, 0), &val("pregnancy"));
        assert_eq!(c.cell(1, 1), &val("TSH"));
        assert_eq!(c.row(1).cells, vec![val("hypothyroidism"), val("TSH")]);
        assert_eq!(c.rows().len(), 2);
        assert_eq!(c.codes(0), &[0, 1]);
        assert_eq!(c.dict(0).len(), 2);
    }

    #[test]
    fn interning_shares_repeated_cells() {
        let c = Component::singleton(
            f(1, 0),
            vec![(val("x"), 0.25), (val("x"), 0.25), (val("y"), 0.5)],
        );
        assert_eq!(c.dict(0).len(), 2);
        assert_eq!(c.codes(0), &[0, 0, 1]);
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut c = paper_component();
        c.set_prob(0, 0.5);
        assert!(c.validate().is_err());
        let mut c2 = paper_component();
        c2.set_prob(0, -0.1);
        assert!(c2.validate().is_err());
    }

    #[test]
    fn validate_rejects_arity_mismatch_and_dup_fields() {
        // over-length row: extra cells are not stored, but validate flags it
        let c = Component::new(
            vec![f(1, 0)],
            vec![CompRow::new(vec![val("a"), val("b")], 1.0)],
        );
        assert!(c.validate().is_err());
        // under-length row: padded with ⊥ in storage, still flagged
        let u = Component::new(
            vec![f(1, 0), f(1, 1)],
            vec![CompRow::new(vec![val("a")], 1.0)],
        );
        assert!(u.validate().is_err());
        let d = Component::new(
            vec![f(1, 0), f(1, 0)],
            vec![CompRow::new(vec![val("a"), val("b")], 1.0)],
        );
        assert!(d.validate().is_err());
        let e = Component::new(vec![f(1, 0)], vec![]);
        assert!(e.validate().is_err());
    }

    #[test]
    fn product_multiplies_probabilities() {
        let sym = Component::singleton(
            f(1, 2),
            vec![(val("weight gain"), 0.7), (val("fatigue"), 0.3)],
        );
        let p = paper_component().product(&sym);
        assert_eq!(p.num_fields(), 3);
        assert_eq!(p.num_rows(), 4);
        p.validate().unwrap();
        // The paper's world probability: 0.6 * 0.7 = 0.42 appears as a row.
        assert!(p.probs().iter().any(|&q| (q - 0.42).abs() < 1e-12));
        // row-major order: (left 0, right 0), (left 0, right 1), ...
        assert_eq!(p.cell(0, 0), &val("pregnancy"));
        assert_eq!(p.cell(1, 2), &val("fatigue"));
        assert_eq!(p.cell(3, 1), &val("TSH"));
    }

    #[test]
    fn project_columns_merges_and_sums() {
        let c = paper_component();
        // project onto Diagnosis only — both rows stay distinct
        let p = c.project_columns(&[0]);
        assert_eq!(p.num_rows(), 2);
        // a component where projection makes rows collide
        let c2 = Component::new(
            vec![f(1, 0), f(1, 1)],
            vec![
                CompRow::new(vec![val("x"), val("a")], 0.25),
                CompRow::new(vec![val("x"), val("b")], 0.25),
                CompRow::new(vec![val("y"), val("a")], 0.5),
            ],
        );
        let p2 = c2.project_columns(&[0]);
        assert_eq!(p2.num_rows(), 2);
        let rows = p2.rows();
        let x = rows.iter().find(|r| r.cells[0] == val("x")).unwrap();
        assert!((x.p - 0.5).abs() < 1e-12);
        p2.validate().unwrap();
        // projection compacts the dictionary
        assert_eq!(p2.dict(0).len(), 2);
    }

    #[test]
    fn dedup_rows_sums_and_renormalizes() {
        let mut c = Component::new(
            vec![f(1, 0)],
            vec![
                CompRow::new(vec![val("a")], 0.3),
                CompRow::new(vec![val("a")], 0.3),
                CompRow::new(vec![val("b")], 0.4),
            ],
        );
        c.apply_dedup(c.dedup_plan(0.0).unwrap());
        assert_eq!(c.num_rows(), 2);
        c.validate().unwrap();
        // a second pass finds nothing to do
        assert!(c.dedup_plan(0.0).is_none());
    }

    #[test]
    fn retain_rows_reports_removed_mass() {
        let mut c = Component::singleton(
            f(1, 0),
            vec![(val("a"), 0.3), (val("b"), 0.3), (val("c"), 0.4)],
        );
        let removed = c.retain_rows(|r| r.cell(0) != &val("b"));
        assert!((removed - 0.3).abs() < 1e-12);
        assert_eq!(c.num_rows(), 2);
        c.renormalize();
        c.validate().unwrap();
        // dict garbage from the deleted row is compacted away
        assert_eq!(c.dict(0).len(), 2);
    }

    #[test]
    fn add_column_appends() {
        let mut c = paper_component();
        c.add_column(Field::exists(Tid(9)), |r| {
            if r.cell(0) == &val("pregnancy") {
                Cell::Val(Value::Bool(true))
            } else {
                Cell::Bottom
            }
        });
        assert_eq!(c.num_fields(), 3);
        assert!(c.cell(1, 2).is_bottom());
    }

    #[test]
    fn possible_values_skips_bottom() {
        let c = Component::singleton(
            f(1, 0),
            vec![(val("a"), 0.5), (Cell::Bottom, 0.5)],
        );
        assert_eq!(c.possible_values(f(1, 0)), vec![Value::str("a")]);
        assert!(c.possible_values(f(2, 0)).is_empty());
    }

    #[test]
    fn column_scans() {
        let c = Component::singleton(
            f(1, 0),
            vec![(Cell::Bottom, 0.5), (Cell::Bottom, 0.5)],
        );
        assert!(c.column_all_bottom(0));
        assert_eq!(c.column_constant(0), None);
        let k = Component::singleton(f(1, 0), vec![(val("k"), 0.4), (val("k"), 0.6)]);
        assert!(!k.column_all_bottom(0));
        assert_eq!(k.column_constant(0), Some(&val("k")));
    }

    #[test]
    fn compact_shrinks_dictionary_after_bulk_delete() {
        // 6 distinct values interned, then a bulk delete: every row but one
        // is ⊥-marked. The dictionary keeps the orphaned cells (it only
        // ever grows) until compact() garbage-collects them.
        let alts: Vec<(Cell, f64)> = (0..6)
            .map(|i| (Cell::Val(Value::Int(i)), 1.0 / 6.0))
            .collect();
        let mut c = Component::singleton(f(1, 0), alts);
        assert_eq!(c.dict(0).len(), 6);
        for row in 1..6 {
            assert!(c.set_bottom(row, 0));
        }
        // ⊥ joined the dictionary; the five displaced values are orphaned
        assert_eq!(c.dict(0).len(), 7);
        assert!(c.compact());
        assert_eq!(c.dict(0).len(), 2, "only Int(0) and ⊥ are live");
        assert_eq!(c.cell(0, 0), &Cell::Val(Value::Int(0)));
        assert!(c.cell(3, 0).is_bottom());
        assert_eq!(c.possible_values(f(1, 0)), vec![Value::Int(0)]);
        // second call is a no-op
        assert!(!c.compact());
    }

    #[test]
    fn compact_preserves_merge_garbage_semantics() {
        // product() shares dictionaries, so garbage survives a merge and
        // compaction afterwards must not disturb row data
        let mut a = Component::singleton(f(1, 0), vec![(val("x"), 0.5), (val("y"), 0.5)]);
        a.set_bottom(1, 0); // orphan "y"
        let b = Component::singleton(f(2, 0), vec![(val("p"), 0.3), (val("q"), 0.7)]);
        let mut prod = a.product(&b);
        let before: Vec<CompRow> = prod.rows();
        assert!(prod.compact());
        assert_eq!(prod.rows(), before);
        assert_eq!(prod.dict(0).len(), 2, "x and ⊥; y collected");
    }

    #[test]
    fn col_of_finds_fields() {
        let c = paper_component();
        assert_eq!(c.col_of(f(1, 1)), Some(1));
        assert_eq!(c.col_of(f(2, 0)), None);
    }
}
