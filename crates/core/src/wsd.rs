//! Probabilistic world-set decompositions.
//!
//! A [`Wsd`] stores a finite set of possible worlds — each world a complete
//! relational database — as:
//!
//! * per relation, a *template*: a list of template tuples whose fields are
//!   either **certain** values (stored inline, once) or **open** (defined by
//!   a component column), plus a hidden existence flag;
//! * a set of [`Component`]s, each defining values for a set of fields; the
//!   world-set is the relational product of the components: one world per
//!   combination of one row from each component, with probability the
//!   product of the chosen rows' probabilities (paper §2).
//!
//! "The main principle of WSDs is to store independent tuple fields in
//! separate components and dependent tuple fields within the same
//! component."
//!
//! # The field index
//!
//! Alongside the forward map *field → (component, column)* the WSD
//! maintains a **reverse index** *(component, column) → fields* that is
//! updated incrementally by every mutation ([`Wsd::add_component`],
//! [`Wsd::alias_field`], [`Wsd::merge_components`], [`Wsd::compact`], …).
//! Normalization and confidence clustering read component ownership
//! straight from this index instead of re-deriving it by scanning all
//! templates on every pass. Invariants (checked by [`Wsd::validate`]):
//! every forward entry appears in the reverse index at exactly its mapped
//! location, and the mapped fields are exactly the open cells and open ∃
//! fields of the live template tuples — so a tuple's fields are found
//! from the tuple, and none outlives it.
//!
//! # The dirty set
//!
//! Every mutation that can take a component out of normal form records
//! its index in a **dirty set**: adding one, changing its rows, cells or
//! columns, merging it, and a field leaving it (unmapped, or aliased to
//! another column). Aliasing a field *to* a column adds a reader and
//! changes no content, so it marks nothing. A derived tuple that reads
//! columns of one source tuple is absent only where that source is,
//! so it leaves a normalized component normalized, and
//! `Wsd::into_relation` marks a clean slot only where a column lost its
//! last field. A join pair reads two tuples and is absent where either
//! is; it marks the components it reads itself.
//! [`crate::normalize::normalize`] visits only dirty components and their
//! templates, re-marking a component only when a pass actually changes it,
//! so an already-normalized region of the decomposition costs nothing.
//! [`crate::normalize::normalize_full`] marks everything dirty first and
//! is the full-fixpoint escape hatch (and oracle reference).
//!
//! # Sharing
//!
//! A `Wsd` is a persistent value, stored the way the paper stores one — as
//! separate relations — so that a copy shares everything a later mutation
//! does not touch. Each relation template sits behind its own `Arc`; so
//! does each component, and so does each component's reverse-index row
//! (whose column headers live in that `Arc`'s own allocation), and so do
//! each tuple's cells. The component slots sit in fixed-size chunks
//! (`Slots`), each behind its own `Arc`, and the field map behind one.
//! Cloning therefore costs a reference-count increment per relation and
//! per chunk of slots and a copy of the dirty set — independent of how
//! many components or fields there are; no slot, tuple, row or
//! dictionary value is copied. Every mutator reaches what it changes
//! through `Arc::make_mut`, which copies that one part the first time it
//! is written while another clone still shares it, and writes in place
//! otherwise:
//!
//! * pushing or removing tuples copies that relation's tuple headers;
//!   editing a tuple also copies its cells;
//! * a write to a slot — aliasing or unmapping a field (its
//!   reverse-index row), a merge's tombstone, a push — copies the slot
//!   pointers of the one chunk it lands in, never a component;
//! * mapping, moving or unmapping a field copies the field map once;
//! * ⊥-marking, adding a column to or deleting rows from a component
//!   copies that component;
//! * merging reads its parts shared and writes a new slot; dropping a
//!   component copies nothing.
//!
//! So the executor's per-statement clone and a writer's copy-on-write of
//! a published snapshot cost what the statement touches, not the size of
//! the database, and the clones never observe each other's writes. A read
//! that maps no field (a selection over certain tuples) copies no chunk
//! and no field map at all.
//!
//! `Arc::make_mut` also moves a part to a new allocation while only a
//! `Weak` still points at it, so an allocation that anything observes
//! never changes contents. That is why there is no mutation counter: the
//! statistics cache ([`crate::stats::WsdStats`]) keys each entry on the
//! allocations it read.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use maybms_relational::{Error, Relation, Result, Schema, Tuple, Value};
use maybms_worldset::{OrSetCell, World, WorldSet};

use crate::bigint::BigUint;
use crate::cell::Cell;
use crate::component::Component;
use crate::field::{Field, Tid};

/// A field of a template tuple: stored inline (certain in all worlds) or
/// defined by a component column (looked up through the WSD's field map).
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateCell {
    Certain(Value),
    Open,
}

/// Whether a template tuple exists in every world or only in the worlds
/// where its existence field is non-⊥.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Existence {
    Always,
    Open,
}

/// One template tuple. Its cells are shared, so copying a relation's
/// template copies tuple headers, not values.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleTemplate {
    pub tid: Tid,
    pub cells: Arc<[TemplateCell]>,
    pub exists: Existence,
}

impl TupleTemplate {
    /// The fields a component defines: the open cells, then the open ∃.
    pub(crate) fn open_fields(&self) -> impl Iterator<Item = Field> + '_ {
        let tid = self.tid;
        let open = self.cells.iter().enumerate().filter(|(_, c)| matches!(c, TemplateCell::Open));
        open.map(move |(i, _)| Field::attr(tid, i as u32))
            .chain((self.exists == Existence::Open).then(|| Field::exists(tid)))
    }
}

/// The template of one relation: its schema and template tuples.
#[derive(Debug, Clone)]
pub struct RelTemplate {
    pub schema: Schema,
    pub tuples: Vec<TupleTemplate>,
}

/// The shape of a decomposition — relation, tuple, component and row
/// counts — as [`Wsd::stats`] summarizes it for experiment tables (the
/// optimizer's statistics cache is [`crate::stats::WsdStats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WsdShape {
    pub relations: usize,
    pub template_tuples: usize,
    pub components: usize,
    pub component_rows: usize,
    pub component_cells: usize,
    pub max_component_rows: usize,
}

/// One component slot: the component — `None` for a tombstone left by a
/// merge or a drop, which keeps later indices stable until
/// [`Wsd::compact`] — and its reverse-index row, each shared on its own,
/// so that aliasing a field (a write to the row) never copies the
/// component. The default slot is a tombstone (an empty shared row
/// allocates nothing).
#[derive(Debug, Clone, Default)]
pub(crate) struct Slot {
    pub(crate) comp: Option<Arc<Component>>,
    /// `rev[col]` lists the fields currently mapped to column `col`.
    pub(crate) rev: Arc<[Vec<Field>]>,
}

impl Slot {
    pub(crate) fn new(comp: Component, rev: Arc<[Vec<Field>]>) -> Slot {
        Slot { comp: Some(Arc::new(comp)), rev }
    }
}

/// Slots per chunk of [`Slots`]. A clone copies `len / CHUNK` pointers
/// and a write to a shared chunk clones `CHUNK` slots (two reference
/// counts each). Against 1 024 on the 1 999-component benchmark image,
/// 256 read 0.3–1.7 % more `point_read` throughput in 5 of 5 pairs and
/// was level on `census_queries` and `mixed_rw`; at the paper's scale a
/// larger chunk would make the clone cheaper.
const CHUNK: usize = 256;

/// The component slots: a persistent vector of `CHUNK`-slot chunks, each
/// behind its own `Arc`, every chunk but the last full. A clone copies
/// one pointer per chunk; a write copies the one chunk it touches (one
/// pointer pair per slot) the first time a clone still shares it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    pub(crate) chunks: Vec<Arc<Vec<Slot>>>,
}

impl Slots {
    pub(crate) fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    pub(crate) fn get(&self, i: usize) -> Option<&Slot> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    pub(crate) fn push(&mut self, slot: Slot) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(slot),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(slot);
                self.chunks.push(Arc::new(chunk));
            }
        }
    }

    /// Slot `i` by value: moved out of a chunk only this holds (leaving a
    /// tombstone), cloned from a shared one.
    fn take(&mut self, i: usize) -> Slot {
        let Some(chunk) = self.chunks.get_mut(i / CHUNK) else { return Slot::default() };
        if let Some(owned) = Arc::get_mut(chunk) {
            return std::mem::take(&mut owned[i % CHUNK]);
        }
        chunk[i % CHUNK].clone()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &Slot> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl std::ops::Index<usize> for Slots {
    type Output = Slot;
    fn index(&self, i: usize) -> &Slot {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl std::ops::IndexMut<usize> for Slots {
    fn index_mut(&mut self, i: usize) -> &mut Slot {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }
}

impl FromIterator<Slot> for Slots {
    fn from_iter<I: IntoIterator<Item = Slot>>(iter: I) -> Slots {
        let mut slots = Slots::default();
        iter.into_iter().for_each(|slot| slots.push(slot));
        slots
    }
}

/// A probabilistic world-set decomposition over a multi-relation database.
/// Cloning shares every relation template and component slot (see the
/// module's "Sharing" section).
#[derive(Debug, Clone)]
pub struct Wsd {
    pub(crate) relations: BTreeMap<String, Arc<RelTemplate>>,
    /// Component slots, tombstones included: merging replaces its parts
    /// by tombstones while keeping indices stable; [`Wsd::compact`] drops
    /// them.
    pub(crate) slots: Slots,
    /// field → (component index, column index). Many-to-one: derived tuples
    /// *alias* the columns of the tuples they were computed from, which is
    /// how correlations between query results and their inputs are kept.
    /// Shared: the first write to a clone's map copies it whole.
    /// `pub(crate)` for the lossless snapshot codec ([`crate::codec`]).
    pub(crate) field_map: Arc<HashMap<Field, (usize, usize)>>,
    /// Components touched since the last incremental normalize.
    pub(crate) dirty: BTreeSet<usize>,
    pub(crate) next_tid: u64,
}

impl Default for Wsd {
    fn default() -> Self {
        Wsd::new()
    }
}

impl Wsd {
    pub fn new() -> Wsd {
        Wsd {
            relations: BTreeMap::new(),
            slots: Slots::default(),
            field_map: Arc::default(),
            dirty: BTreeSet::new(),
            next_tid: 0,
        }
    }

    /// Reassembles a decomposition from its raw parts — the snapshot
    /// codec's constructor ([`crate::codec::decode_wsd`]). The caller is
    /// responsible for running [`Wsd::validate`] on the result; this does
    /// no checking itself.
    pub(crate) fn from_parts(
        relations: BTreeMap<String, Arc<RelTemplate>>,
        slots: Vec<Slot>,
        field_map: HashMap<Field, (usize, usize)>,
        dirty: BTreeSet<usize>,
        next_tid: u64,
    ) -> Wsd {
        let (slots, field_map) = (slots.into_iter().collect(), Arc::new(field_map));
        Wsd { relations, slots, field_map, dirty, next_tid }
    }

    // ------------------------------------------------------------------
    // Schema-level operations
    // ------------------------------------------------------------------

    /// Registers an empty relation.
    pub fn add_relation(&mut self, name: impl Into<String>, schema: Schema) -> Result<()> {
        let name = name.into();
        if self.relations.contains_key(&name) {
            return Err(Error::DuplicateRelation(name));
        }
        self.relations.insert(name, Arc::new(RelTemplate { schema, tuples: Vec::new() }));
        Ok(())
    }

    pub fn relation(&self, name: &str) -> Result<&RelTemplate> {
        self.shared_relation(name).map(|t| &**t)
    }

    /// The relation's shared template: holding it keeps the template
    /// readable while the decomposition is mutated (a write to this
    /// relation meanwhile copies it away from the holder).
    pub(crate) fn shared_relation(&self, name: &str) -> Result<&Arc<RelTemplate>> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Write access to a relation's template, copying it first when a
    /// clone still shares it.
    pub(crate) fn relation_mut(&mut self, name: &str) -> Result<&mut RelTemplate> {
        self.relations
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Drops a relation and unmaps its tuples' fields, so that
    /// [`crate::normalize::normalize`] drops what only they read.
    pub fn remove_relation(&mut self, name: &str) -> Result<()> {
        let tpl = self.take_relation(name)?;
        self.unmap_fields(tpl.tuples.iter().flat_map(TupleTemplate::open_fields).collect());
        Ok(())
    }

    fn take_relation(&mut self, name: &str) -> Result<Arc<RelTemplate>> {
        self.relations
            .remove(name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Renames a relation.
    pub fn rename_relation(&mut self, from: &str, to: impl Into<String>) -> Result<()> {
        let t = self.take_relation(from)?;
        let to = to.into();
        if self.relations.contains_key(&to) {
            self.relations.insert(from.to_string(), t);
            return Err(Error::DuplicateRelation(to));
        }
        self.relations.insert(to, t);
        Ok(())
    }

    /// Allocates a fresh tuple identifier. Needed when assembling a WSD by
    /// hand from components and templates (as `examples::medical_wsd` does);
    /// the or-set/certain push APIs call it internally.
    pub fn fresh_tid(&mut self) -> Tid {
        let t = Tid(self.next_tid);
        self.next_tid += 1;
        t
    }

    /// Pre-sizes a relation's template for `additional` more tuples —
    /// operators that know their output cardinality call this once instead
    /// of growing the vector push by push.
    pub(crate) fn reserve_tuples(&mut self, rel: &str, additional: usize) {
        if let Ok(tpl) = self.relation_mut(rel) {
            tpl.tuples.reserve(additional);
        }
    }

    // ------------------------------------------------------------------
    // Tuple-level construction
    // ------------------------------------------------------------------

    /// Appends a certain tuple (all fields inline, exists in every world).
    pub fn push_certain(&mut self, rel: &str, values: Vec<Value>) -> Result<Tid> {
        let tid = self.fresh_tid();
        let schema = &self.relation(rel)?.schema;
        if values.len() != schema.len() {
            return Err(Error::TypeError(format!(
                "tuple arity {} vs schema {}",
                values.len(),
                schema.len()
            )));
        }
        for (i, v) in values.iter().enumerate() {
            if !v.matches_type(schema.column(i).ty) {
                return Err(Error::TypeError(format!(
                    "value {v} not valid for column {}",
                    schema.column(i).name
                )));
            }
        }
        self.relation_mut(rel)?.tuples.push(TupleTemplate {
            tid,
            cells: values.into_iter().map(TemplateCell::Certain).collect(),
            exists: Existence::Always,
        });
        Ok(tid)
    }

    /// Appends an or-set tuple: certain fields are stored inline; each
    /// uncertain field becomes its own single-field component — the
    /// *maximal* decomposition, valid because or-set field choices are
    /// independent.
    pub fn push_orset(&mut self, rel: &str, cells: Vec<OrSetCell>) -> Result<Tid> {
        let tid = self.fresh_tid();
        {
            let tpl = self.relation(rel)?;
            if cells.len() != tpl.schema.len() {
                return Err(Error::TypeError(format!(
                    "or-set tuple arity {} vs schema {}",
                    cells.len(),
                    tpl.schema.len()
                )));
            }
            for (i, c) in cells.iter().enumerate() {
                for (v, _) in c.alternatives() {
                    if !v.matches_type(tpl.schema.column(i).ty) {
                        return Err(Error::TypeError(format!(
                            "alternative {v} not valid for column {}",
                            tpl.schema.column(i).name
                        )));
                    }
                }
            }
        }
        let mut tcells = Vec::with_capacity(cells.len());
        for (i, c) in cells.into_iter().enumerate() {
            if let Some(v) = c.certain_value() {
                tcells.push(TemplateCell::Certain(v.clone()));
            } else {
                let field = Field::attr(tid, i as u32);
                let comp = Component::singleton(
                    field,
                    c.alternatives()
                        .iter()
                        .map(|(v, p)| (Cell::Val(v.clone()), *p))
                        .collect(),
                );
                self.add_component(comp);
                tcells.push(TemplateCell::Open);
            }
        }
        self.relation_mut(rel)?.tuples.push(TupleTemplate {
            tid,
            cells: tcells.into(),
            exists: Existence::Always,
        });
        Ok(tid)
    }

    /// Appends a pre-built template tuple. The caller must have registered
    /// component columns for every `Open` cell (and for `Existence::Open`)
    /// via [`Wsd::add_component`] or [`Wsd::alias_field`].
    pub fn push_template(&mut self, rel: &str, t: TupleTemplate) -> Result<()> {
        let arity = self.relation(rel)?.schema.len();
        if t.cells.len() != arity {
            return Err(Error::TypeError(format!(
                "template arity {} vs schema {arity}",
                t.cells.len()
            )));
        }
        self.relation_mut(rel)?.tuples.push(t);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Field map + reverse index
    // ------------------------------------------------------------------

    fn rev_insert(&mut self, f: Field, (c, col): (usize, usize)) {
        let rev = &mut self.slots[c].rev;
        if col >= rev.len() {
            // the row grows only when a column is added to the component;
            // a row this clone owns gives up its lists instead of copying
            let new_cols = std::iter::repeat_with(Vec::new).take(col + 1 - rev.len());
            *rev = match Arc::get_mut(rev) {
                Some(row) => row.iter_mut().map(std::mem::take).chain(new_cols).collect(),
                None => rev.iter().cloned().chain(new_cols).collect(),
            };
        }
        Arc::make_mut(rev)[col].push(f);
    }

    fn rev_remove(&mut self, f: Field, (c, col): (usize, usize)) {
        let row = self.slots.get(c).and_then(|s| s.rev.get(col));
        let Some(pos) = row.and_then(|v| v.iter().position(|&g| g == f)) else { return };
        Arc::make_mut(&mut self.slots[c].rev)[col].swap_remove(pos);
    }

    /// Makes `field` an alias for an existing component column. Used by
    /// query operators so result tuples share the columns of their inputs.
    /// Keeps the reverse index in sync and marks the component the field
    /// leaves dirty, not the one it joins (see "The dirty set").
    pub fn alias_field(&mut self, field: Field, loc: (usize, usize)) {
        if let Some(old) = self.fields_mut().insert(field, loc) {
            if old == loc {
                return;
            }
            self.rev_remove(field, old);
            self.dirty.insert(old.0);
        }
        self.rev_insert(field, loc);
    }

    /// Write access to the field map, copying it first if shared.
    fn fields_mut(&mut self) -> &mut HashMap<Field, (usize, usize)> {
        Arc::make_mut(&mut self.field_map)
    }

    /// Removes a field's mapping (if any), marking its component dirty.
    pub(crate) fn unmap_field(&mut self, field: Field) {
        let Some(loc) = self.field_loc(field) else { return };
        self.fields_mut().remove(&field);
        self.rev_remove(field, loc);
        self.dirty.insert(loc.0);
    }

    /// Unmaps `fields` in field order: removal order decides
    /// reverse-index order (`swap_remove`), so it must not come from a
    /// hash seed for two copies of one decomposition to stay
    /// byte-identical.
    pub(crate) fn unmap_fields(&mut self, mut fields: Vec<Field>) {
        fields.sort_unstable();
        fields.into_iter().for_each(|f| self.unmap_field(f));
    }

    /// Unmaps every field of a live component that no live tuple has
    /// open, and reports whether there was one: images written while
    /// `DROP TABLE` still left a relation's fields mapped hold such
    /// fields. A field mapped anywhere else is left for
    /// [`Wsd::validate`] to reject.
    pub(crate) fn unmap_orphan_fields(&mut self) -> bool {
        let tuples = || self.relations.values().flat_map(|tpl| tpl.tuples.iter());
        if tuples().flat_map(TupleTemplate::open_fields).count() == self.field_map.len() {
            return false;
        }
        let open: HashSet<Field> = tuples().flat_map(TupleTemplate::open_fields).collect();
        let orphans: Vec<Field> = (self.field_map.iter())
            .filter(|&(f, &(c, _))| !open.contains(f) && self.is_live(c))
            .map(|(&f, _)| f)
            .collect();
        let found = !orphans.is_empty();
        self.unmap_fields(orphans);
        found
    }

    /// Test/tooling hook: forgets all field mappings.
    #[cfg(test)]
    pub(crate) fn clear_field_map(&mut self) {
        self.unmap_fields(self.field_map.keys().copied().collect());
    }

    /// Location of a field, if open.
    pub fn field_loc(&self, field: Field) -> Option<(usize, usize)> {
        self.field_map.get(&field).copied()
    }

    /// The fields currently mapped to column `col` of component `c` — the
    /// reverse index read normalization and clustering are built on.
    pub fn fields_at(&self, c: usize, col: usize) -> &[Field] {
        self.fields_of_component(c)
            .get(col)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Per-column field lists of component `c` (reverse index row).
    pub fn fields_of_component(&self, c: usize) -> &[Vec<Field>] {
        self.slots.get(c).map(|s| &*s.rev).unwrap_or(&[])
    }

    /// Number of field-map entries (all relations).
    pub fn num_mapped_fields(&self) -> usize {
        self.field_map.len()
    }

    // ------------------------------------------------------------------
    // Dirty-set bookkeeping
    // ------------------------------------------------------------------

    pub(crate) fn mark_dirty(&mut self, c: usize) {
        self.dirty.insert(c);
    }

    /// Marks every live component dirty (full renormalization).
    pub(crate) fn mark_all_dirty(&mut self) {
        for (i, s) in self.slots.iter().enumerate() {
            if s.comp.is_some() {
                self.dirty.insert(i);
            }
        }
    }

    /// Drains the dirty set, returning the live indices it contained.
    pub(crate) fn take_dirty(&mut self) -> Vec<usize> {
        let taken = std::mem::take(&mut self.dirty);
        taken.into_iter().filter(|&i| self.is_live(i)).collect()
    }

    fn is_live(&self, i: usize) -> bool {
        self.slots.get(i).is_some_and(|s| s.comp.is_some())
    }

    /// The live components currently marked dirty (peek, for stats/tests).
    pub fn dirty_components(&self) -> Vec<usize> {
        self.dirty.iter().copied().filter(|&i| self.is_live(i)).collect()
    }

    // ------------------------------------------------------------------
    // Component management
    // ------------------------------------------------------------------

    /// Registers a component; its fields become defined in the field map
    /// (and indexed in the reverse index). The new component is dirty.
    pub fn add_component(&mut self, c: Component) -> usize {
        let idx = self.slots.len();
        let fields: Vec<Field> = c.fields().to_vec();
        let rev = (0..c.num_fields()).map(|_| Vec::new()).collect();
        self.slots.push(Slot::new(c, rev));
        for (col, f) in fields.into_iter().enumerate() {
            self.alias_field(f, (idx, col));
        }
        self.dirty.insert(idx);
        idx
    }

    pub fn component(&self, idx: usize) -> Option<&Component> {
        self.slots.get(idx).and_then(|s| s.comp.as_deref())
    }

    /// Mutable component access. Conservatively marks the component dirty —
    /// callers that only *read* should use [`Wsd::component`].
    pub fn component_mut(&mut self, idx: usize) -> Option<&mut Component> {
        if self.is_live(idx) {
            self.dirty.insert(idx);
        }
        self.component_mut_silent(idx)
    }

    /// Mutable access *without* dirty marking — normalization passes use
    /// this and mark explicitly only when they change something.
    pub(crate) fn component_mut_silent(&mut self, idx: usize) -> Option<&mut Component> {
        if !self.is_live(idx) {
            return None;
        }
        self.slots[idx].comp.as_mut().map(Arc::make_mut)
    }

    /// Drops a component (normalization/factorization internals), leaving
    /// a tombstone. Its reverse-index row must be empty.
    pub(crate) fn drop_component(&mut self, idx: usize) {
        debug_assert!(
            self.slots[idx].rev.iter().all(Vec::is_empty),
            "dropping component {idx} with mapped fields"
        );
        self.slots[idx] = Slot::default();
    }

    /// Projects component `idx` onto `keep` (old column indices, in the
    /// new order; see [`Component::project_columns`]) and rewrites the
    /// field map and reverse index of its surviving columns. Columns not
    /// in `keep` must be unreferenced.
    pub(crate) fn project_component(&mut self, idx: usize, keep: &[usize]) {
        let slot = &self.slots[idx];
        let Some(comp) = &slot.comp else { return };
        debug_assert!(
            slot.rev
                .iter()
                .enumerate()
                .all(|(c, v)| keep.contains(&c) || v.is_empty()),
            "project_component dropped a referenced column of component {idx}"
        );
        let projected = comp.project_columns(keep);
        let rev: Arc<[Vec<Field>]> = keep
            .iter()
            .map(|&old_col| slot.rev.get(old_col).cloned().unwrap_or_default())
            .collect();
        for (new_col, fields) in rev.iter().enumerate() {
            for &f in fields {
                self.fields_mut().insert(f, (idx, new_col));
            }
        }
        self.slots[idx] = Slot::new(projected, rev);
    }

    /// Indices of live (non-tombstoned) components.
    pub fn live_components(&self) -> Vec<usize> {
        (0..self.slots.len()).filter(|&i| self.is_live(i)).collect()
    }

    fn live(&self) -> impl Iterator<Item = &Component> {
        self.slots.iter().filter_map(|s| s.comp.as_deref())
    }

    pub fn num_components(&self) -> usize {
        self.live().count()
    }

    /// Total component slots including tombstones — the length dense
    /// choice vectors must have.
    pub fn num_component_slots(&self) -> usize {
        self.slots.len()
    }

    /// Whether any component slot is a tombstone (merged/dropped).
    pub fn has_tombstones(&self) -> bool {
        self.slots.iter().any(|s| s.comp.is_none())
    }

    /// Merges the given components into one (their relational product) and
    /// returns its index. All field-map entries pointing into the merged
    /// components are retargeted **through the reverse index** — O(fields
    /// of the merged components), not O(all fields). Duplicate indices are
    /// tolerated. The parts are read shared and left as tombstones.
    pub fn merge_components(&mut self, indices: &[usize]) -> Result<usize> {
        let mut idxs: Vec<usize> = indices.to_vec();
        idxs.sort_unstable();
        idxs.dedup();
        if idxs.is_empty() {
            return Err(Error::InvalidExpr("merge of zero components".into()));
        }
        if idxs.len() == 1 {
            return Ok(idxs[0]);
        }
        let parts: Vec<&Component> = idxs
            .iter()
            .map(|&i| {
                self.component(i)
                    .ok_or_else(|| Error::InvalidExpr(format!("component {i} is dead")))
            })
            .collect::<Result<_>>()?;
        let merged = parts[2..]
            .iter()
            .fold(parts[0].product(parts[1]), |acc, p| acc.product(p));

        // Retarget exactly the fields indexed under the merged parts, at
        // each part's column offset.
        let new_idx = self.slots.len();
        let mut rev: Vec<Vec<Field>> = Vec::with_capacity(merged.num_fields());
        for &old_idx in &idxs {
            let old = &self.slots[old_idx];
            let width = old.comp.as_deref().map_or(0, Component::num_fields);
            for col in 0..width {
                let fields = old.rev.get(col).cloned().unwrap_or_default();
                for &f in &fields {
                    Arc::make_mut(&mut self.field_map).insert(f, (new_idx, rev.len()));
                }
                rev.push(fields);
            }
        }
        self.slots.push(Slot::new(merged, rev.into()));
        for &old_idx in &idxs {
            self.slots[old_idx] = Slot::default();
            self.dirty.remove(&old_idx);
        }
        self.dirty.insert(new_idx);
        Ok(new_idx)
    }

    // ------------------------------------------------------------------
    // Semantics: world counting, enumeration, instantiation
    // ------------------------------------------------------------------

    /// The number of worlds represented: the product of the live
    /// components' row counts (exact, arbitrary precision). Distinct-world
    /// counts (merging equal databases) require enumeration.
    pub fn world_count(&self) -> BigUint {
        let mut n = BigUint::one();
        for c in self.live() {
            n = n.mul_u64(c.num_rows() as u64);
        }
        n
    }

    /// Instantiates the world picked by `choice`: a **dense** row-index
    /// vector with one slot per component slot (`choice[c]` is the chosen
    /// row of component `c`; slots of dead components are ignored). No
    /// per-world allocation beyond the output relation itself.
    pub fn instantiate(&self, choice: &[usize]) -> Result<World> {
        if choice.len() < self.slots.len() {
            return Err(Error::InvalidExpr(format!(
                "choice vector has {} slots for {} components",
                choice.len(),
                self.slots.len()
            )));
        }
        let mut w = World::new();
        for (name, tpl) in &self.relations {
            let mut rel = Relation::empty(tpl.schema.clone());
            'tuples: for t in &tpl.tuples {
                // existence check
                if t.exists == Existence::Open {
                    let (c, col) = self
                        .field_loc(Field::exists(t.tid))
                        .ok_or_else(|| Error::InvalidExpr(format!("unmapped ∃ of {}", t.tid)))?;
                    if self.chosen_cell(c, col, choice)?.is_bottom() {
                        continue 'tuples;
                    }
                }
                let mut vals = Vec::with_capacity(t.cells.len());
                for (i, cell) in t.cells.iter().enumerate() {
                    match cell {
                        TemplateCell::Certain(v) => vals.push(v.clone()),
                        TemplateCell::Open => {
                            let (c, col) =
                                self.field_loc(Field::attr(t.tid, i as u32)).ok_or_else(|| {
                                    Error::InvalidExpr(format!("unmapped field {}.#{}", t.tid, i))
                                })?;
                            match self.chosen_cell(c, col, choice)? {
                                Cell::Val(v) => vals.push(v.clone()),
                                // ⊥ on any field means the tuple does not
                                // exist in this world.
                                Cell::Bottom => continue 'tuples,
                            }
                        }
                    }
                }
                rel.push_unchecked(Tuple::new(vals));
            }
            w.put(name.clone(), rel);
        }
        Ok(w)
    }

    fn chosen_cell<'a>(&'a self, comp: usize, col: usize, choice: &[usize]) -> Result<&'a Cell> {
        let c = self
            .component(comp)
            .ok_or_else(|| Error::InvalidExpr(format!("dead component {comp}")))?;
        let r = choice[comp];
        if r >= c.num_rows() {
            return Err(Error::InvalidExpr(format!(
                "row {r} out of range in component {comp}"
            )));
        }
        Ok(c.cell(r, col))
    }

    /// Enumerates the full world-set (all combinations of component rows).
    /// Fails if the combinatorial count exceeds `max_worlds` — enumeration
    /// is for oracle/testing scale only; that is the whole point of WSDs.
    /// Uses a single dense choice vector updated in place by the odometer:
    /// no per-world map allocation or rehashing.
    pub fn to_worldset(&self, max_worlds: usize) -> Result<WorldSet> {
        let live = self.live_components();
        let count = self.world_count();
        if count > BigUint::from_u64(max_worlds as u64) {
            return Err(Error::InvalidExpr(format!(
                "world-set too large to enumerate ({} worlds > cap {max_worlds})",
                count.summary()
            )));
        }
        let mut ws = WorldSet::default();
        let widths: Vec<usize> = live
            .iter()
            .map(|&i| self.component(i).expect("live").num_rows()) // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
            .collect();
        let mut choice = vec![0usize; self.slots.len()];
        loop {
            let mut p = 1.0;
            for &c in &live {
                p *= self.component(c).expect("live").prob(choice[c]); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
            }
            ws.push(self.instantiate(&choice)?, p);

            let mut k = live.len();
            loop {
                if k == 0 {
                    return Ok(ws);
                }
                k -= 1;
                let c = live[k];
                choice[c] += 1;
                if choice[c] < widths[k] {
                    break;
                }
                choice[c] = 0;
            }
        }
    }

    // ------------------------------------------------------------------
    // Validation, accounting
    // ------------------------------------------------------------------

    /// Checks all structural invariants: component validity, field-map and
    /// reverse-index consistency, template arity and typing of certain
    /// cells, open cells mapped, existence fields mapped.
    pub fn validate(&self) -> Result<()> {
        for c in self.live() {
            c.validate()?;
        }
        for (f, &(c, col)) in self.field_map.iter() {
            let comp = self
                .component(c)
                .ok_or_else(|| Error::InvalidExpr(format!("field {f} maps to dead component {c}")))?;
            if col >= comp.num_fields() {
                return Err(Error::InvalidExpr(format!(
                    "field {f} maps to column {col} of a {}-column component",
                    comp.num_fields()
                )));
            }
            if !self.fields_at(c, col).contains(f) {
                return Err(Error::InvalidExpr(format!(
                    "field {f} missing from the reverse index at ({c}, {col})"
                )));
            }
        }
        let rev_count: usize = self.slots.iter().flat_map(|s| s.rev.iter()).map(Vec::len).sum();
        if rev_count != self.field_map.len() {
            return Err(Error::InvalidExpr(format!(
                "reverse index holds {rev_count} entries for {} mapped fields",
                self.field_map.len()
            )));
        }
        let mut open = 0;
        for (name, tpl) in &self.relations {
            for t in &tpl.tuples {
                open += t.open_fields().count();
                if t.cells.len() != tpl.schema.len() {
                    return Err(Error::TypeError(format!(
                        "tuple {} in {name} has arity {} vs schema {}",
                        t.tid,
                        t.cells.len(),
                        tpl.schema.len()
                    )));
                }
                for (i, cell) in t.cells.iter().enumerate() {
                    match cell {
                        TemplateCell::Certain(v) => {
                            if !v.matches_type(tpl.schema.column(i).ty) {
                                return Err(Error::TypeError(format!(
                                    "certain value {v} invalid for {name}.{}",
                                    tpl.schema.column(i).name
                                )));
                            }
                        }
                        TemplateCell::Open => {
                            if self.field_loc(Field::attr(t.tid, i as u32)).is_none() {
                                return Err(Error::InvalidExpr(format!(
                                    "open field {}.#{} of {name} is unmapped",
                                    t.tid, i
                                )));
                            }
                        }
                    }
                }
                if t.exists == Existence::Open
                    && self.field_loc(Field::exists(t.tid)).is_none()
                {
                    return Err(Error::InvalidExpr(format!(
                        "open existence of {} in {name} is unmapped",
                        t.tid
                    )));
                }
            }
        }
        // every open field is mapped (above) and tids are unique, so equal
        // counts mean no field outlives its tuple
        if open != self.field_map.len() {
            return Err(Error::InvalidExpr(format!(
                "{} mapped fields for {open} open fields of live tuples",
                self.field_map.len()
            )));
        }
        Ok(())
    }

    /// Estimated bytes of the representation: inline certain values plus
    /// all component data (cells + probability columns). Comparable with
    /// [`Relation::size_bytes`] — the E1 overhead metric.
    pub fn size_bytes(&self) -> usize {
        let template: usize = self
            .relations
            .values()
            .flat_map(|tpl| tpl.tuples.iter())
            .map(|t| {
                std::mem::size_of::<TupleTemplate>()
                    + t.cells
                        .iter()
                        .map(|c| match c {
                            TemplateCell::Certain(v) => v.size_bytes(),
                            TemplateCell::Open => std::mem::size_of::<TemplateCell>(),
                        })
                        .sum::<usize>()
            })
            .sum();
        let comps: usize = self.live().map(Component::size_bytes).sum();
        template + comps
    }

    /// Summary statistics.
    pub fn stats(&self) -> WsdShape {
        let live: Vec<&Component> = self.live().collect();
        WsdShape {
            relations: self.relations.len(),
            template_tuples: self.relations.values().map(|t| t.tuples.len()).sum(),
            components: live.len(),
            component_rows: live.iter().map(|c| c.num_rows()).sum(),
            component_cells: live
                .iter()
                .map(|c| c.num_rows() * c.num_fields())
                .sum(),
            max_component_rows: live.iter().map(|c| c.num_rows()).max().unwrap_or(0),
        }
    }

    /// Drops tombstoned component slots, remapping the field map, reverse
    /// index and dirty set, and garbage-collects the interned-cell
    /// dictionaries ([`Component::compact`]) of the dirty components.
    /// Call after batches of merges/deletes to keep indices dense and
    /// dictionaries tight.
    pub fn compact(&mut self) {
        let dirty: Vec<usize> = self.dirty.iter().copied().collect();
        self.compact_touched(&dirty);
    }

    /// [`Wsd::compact`], garbage-collecting the dictionaries of `touched`
    /// only. Every mutation that can orphan a dictionary entry marks its
    /// component dirty, so once a normalize has drained the dirty set the
    /// components it drained are the only ones that can hold garbage —
    /// everything else was compacted by an earlier normalize.
    pub(crate) fn compact_touched(&mut self, touched: &[usize]) {
        for &i in touched {
            if self.component(i).is_some_and(Component::has_garbage) {
                if let Some(c) = self.component_mut_silent(i) {
                    c.compact();
                }
            }
        }
        if !self.has_tombstones() {
            return;
        }
        let mut remap: Vec<Option<usize>> = vec![None; self.slots.len()];
        let mut kept = 0;
        for (i, s) in self.slots.iter().enumerate() {
            if s.comp.is_some() {
                remap[i] = Some(kept);
                kept += 1;
            }
        }
        let mut old = std::mem::take(&mut self.slots);
        self.slots = (0..remap.len()).map(|i| old.take(i)).filter(|s| s.comp.is_some()).collect();
        self.fields_mut().retain(|_, loc| remap[loc.0].is_some());
        for loc in self.fields_mut().values_mut() {
            loc.0 = remap[loc.0].expect("retained"); // maybms-lint: allow(no-panic-in-prod) -- retained components were assigned Some when the remap table was built above
        }
        self.dirty = std::mem::take(&mut self.dirty)
            .into_iter()
            .filter_map(|i| remap.get(i).copied().flatten())
            .collect();
    }

    /// The decomposition of relation `rel` alone, renamed `as_name`: its
    /// template and the component slots its tuples' open fields reach,
    /// renumbered in increasing old index. The field map holds those
    /// fields, and each reached slot's reverse-index row keeps only them
    /// (in their old order); a slot that was dirty here, or one of whose
    /// columns lost its last field, is dirty in the result (what
    /// [`crate::normalize::normalize`] then cleans up). Costs a field-map
    /// lookup per open field of `rel` plus the reached slots' rows, so it
    /// grows with the answer, not with the database; a reached slot moves
    /// out of a chunk only this copy holds. Nothing outside the result is
    /// written.
    pub(crate) fn into_relation(mut self, rel: &str, as_name: &str) -> Result<Wsd> {
        let tpl = self.take_relation(rel)?;
        let mut fields = Vec::new();
        for f in tpl.tuples.iter().flat_map(TupleTemplate::open_fields) {
            let loc = self.field_loc(f).ok_or_else(|| Error::InvalidExpr(format!("unmapped {f}")))?;
            fields.push((f, loc));
        }
        // in location order, each field's slot renumbered as reached
        fields.sort_unstable_by_key(|&(_, loc)| loc);
        let mut reached = Vec::new();
        for (_, loc) in &mut fields {
            if reached.last() != Some(&loc.0) {
                reached.push(loc.0);
            }
            loc.0 = reached.len() - 1;
        }
        let kept: HashSet<Tid> = tpl.tuples.iter().map(|t| t.tid).collect();
        let keep = |f: &Field| kept.contains(&f.tid);
        let (mut slots, mut dirty) = (Slots::default(), BTreeSet::new());
        for (new_idx, &old_idx) in reached.iter().enumerate() {
            let mut slot = self.slots.take(old_idx);
            let mut emptied = false;
            if slot.rev.iter().flatten().any(|f| !keep(f)) {
                for fields in Arc::make_mut(&mut slot.rev).iter_mut() {
                    let had = !fields.is_empty();
                    fields.retain(keep);
                    emptied |= had && fields.is_empty();
                }
            }
            if emptied || self.dirty.contains(&old_idx) {
                dirty.insert(new_idx);
            }
            slots.push(slot);
        }
        let relations = BTreeMap::from([(as_name.to_string(), tpl)]);
        let field_map = Arc::new(fields.into_iter().collect());
        Ok(Wsd { relations, slots, field_map, dirty, next_tid: self.next_tid })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_relational::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Str)])
    }

    /// Which relations (by name) and component slots (by index) `a` and
    /// `b` still share — the same allocation, not equal contents.
    fn shared_parts(a: &Wsd, b: &Wsd) -> (Vec<String>, Vec<usize>) {
        let rels = a
            .relations
            .iter()
            .filter(|(n, t)| b.relations.get(*n).is_some_and(|u| Arc::ptr_eq(t, u)))
            .map(|(n, _)| n.clone())
            .collect();
        let slots = a
            .slots
            .iter()
            .zip(b.slots.iter())
            .enumerate()
            .filter(|(_, (s, t))| {
                let comp = match (&s.comp, &t.comp) {
                    (Some(c), Some(d)) => Arc::ptr_eq(c, d),
                    (c, d) => c.is_none() && d.is_none(),
                };
                comp && Arc::ptr_eq(&s.rev, &t.rev)
            })
            .map(|(i, _)| i)
            .collect();
        (rels, slots)
    }

    #[test]
    fn one_row_insert_copies_one_relation_spine_and_no_component() {
        let mut a = orset_wsd();
        a.add_relation("s", schema()).unwrap();
        a.push_orset(
            "s",
            vec![
                OrSetCell::uniform(vec![Value::Int(5), Value::Int(6)]).unwrap(),
                OrSetCell::certain("y"),
            ],
        )
        .unwrap();
        let before = a.num_component_slots();
        let mut b = a.clone();
        let (rels, slots) = shared_parts(&a, &b);
        assert_eq!(rels, ["r", "s"], "a clone shares every relation");
        assert_eq!(slots, (0..before).collect::<Vec<_>>(), "and every slot");

        b.push_orset(
            "r",
            vec![
                OrSetCell::uniform(vec![Value::Int(7), Value::Int(8)]).unwrap(),
                OrSetCell::certain("z"),
            ],
        )
        .unwrap();
        let (rels, slots) = shared_parts(&a, &b);
        assert_eq!(rels, ["s"], "only the written relation was copied");
        assert_eq!(slots, (0..before).collect::<Vec<_>>(), "no pre-existing slot was copied");
        assert_eq!(b.num_component_slots(), before + 1);
        assert_eq!(a.relation("r").unwrap().tuples.len(), 2, "the original is unchanged");
        b.validate().unwrap();

        // aliasing into a slot copies its reverse-index row, not its component
        let loc = b.field_loc(Field::attr(b.relation("s").unwrap().tuples[0].tid, 0)).unwrap();
        b.alias_field(Field::attr(Tid(1_000), 0), loc);
        let (_, slots) = shared_parts(&a, &b);
        assert!(!slots.contains(&loc.0));
        assert_eq!(slots.len(), before - 1);
        let (sa, sb) = (&a.slots[loc.0], &b.slots[loc.0]);
        assert!(Arc::ptr_eq(sa.comp.as_ref().unwrap(), sb.comp.as_ref().unwrap()));
        assert_eq!((a.fields_at(loc.0, 0).len(), b.fields_at(loc.0, 0).len()), (1, 2));
    }

    /// Across chunk boundaries, a write to a clone copies only the chunks
    /// it touches: an alias into a slot's reverse row copies that slot's
    /// chunk, a merge also the last chunk it pushes onto. Every other
    /// chunk stays the same allocation and the original its bytes.
    #[test]
    fn a_write_copies_only_the_chunks_it_touches() {
        use crate::codec::encode_wsd;
        let mut a = Wsd::new();
        a.add_relation("r", schema()).unwrap();
        for i in 0..(3 * CHUNK + 10) as i64 {
            let v = OrSetCell::uniform(vec![Value::Int(i), Value::Int(-i)]).unwrap();
            a.push_orset("r", vec![v, OrSetCell::certain("x")]).unwrap();
        }
        let chunks = a.slots.chunks.len();
        assert_eq!(chunks, 4);
        let before = encode_wsd(&a);
        let copied = |b: &Wsd| -> Vec<usize> {
            let same = |k: usize| Arc::ptr_eq(&a.slots.chunks[k], &b.slots.chunks[k]);
            (0..chunks).filter(|&k| !same(k)).collect()
        };
        for k in 0..chunks {
            let mut b = a.clone();
            assert!(copied(&b).is_empty(), "a clone shares every chunk");
            let t = b.relation("r").unwrap().tuples[k * CHUNK].clone();
            let loc = b.field_loc(Field::attr(t.tid, 0)).unwrap();
            assert_eq!(loc.0 / CHUNK, k);
            let tid = b.fresh_tid();
            b.alias_field(Field::attr(tid, 0), loc);
            let cells = vec![TemplateCell::Open, TemplateCell::Certain(Value::str("y"))].into();
            b.push_template("r", TupleTemplate { tid, cells, exists: Existence::Always }).unwrap();
            assert_eq!(copied(&b), [k]);
            b.merge_components(&[k * CHUNK + 1, k * CHUNK + 2]).unwrap();
            let mut touched = vec![k, chunks - 1];
            touched.dedup();
            assert_eq!(copied(&b), touched);
            b.validate().unwrap();
            assert_eq!(encode_wsd(&a), before, "the original is unchanged");
        }
    }

    fn orset_wsd() -> Wsd {
        let mut w = Wsd::new();
        w.add_relation("r", schema()).unwrap();
        w.push_orset(
            "r",
            vec![
                OrSetCell::weighted(vec![(Value::Int(1), 0.4), (Value::Int(2), 0.6)]).unwrap(),
                OrSetCell::certain("x"),
            ],
        )
        .unwrap();
        w.push_orset(
            "r",
            vec![
                OrSetCell::certain(9i64),
                OrSetCell::uniform(vec![Value::str("p"), Value::str("q")]).unwrap(),
            ],
        )
        .unwrap();
        w
    }

    #[test]
    fn orset_construction_is_maximally_decomposed() {
        let w = orset_wsd();
        w.validate().unwrap();
        assert_eq!(w.num_components(), 2); // one per uncertain field
        assert_eq!(w.world_count().to_u64(), Some(4));
        let s = w.stats();
        assert_eq!(s.template_tuples, 2);
        assert_eq!(s.component_rows, 4);
    }

    #[test]
    fn enumeration_matches_orset_expansion() {
        let w = orset_wsd();
        let ws = w.to_worldset(100).unwrap();
        assert_eq!(ws.len(), 4);
        ws.validate().unwrap();
        // check one specific world: a=2, b tuple2 = q has p 0.6*0.5
        let found = ws.worlds().iter().any(|(world, p)| {
            let r = world.get("r").unwrap();
            r.len() == 2
                && r.rows().iter().any(|t| t[0] == Value::Int(2))
                && r.rows().iter().any(|t| t[1] == Value::str("q"))
                && (p - 0.3).abs() < 1e-12
        });
        assert!(found);
    }

    #[test]
    fn certain_tuples_cost_no_components() {
        let mut w = Wsd::new();
        w.add_relation("r", schema()).unwrap();
        w.push_certain("r", vec![Value::Int(1), Value::str("x")]).unwrap();
        assert_eq!(w.num_components(), 0);
        assert_eq!(w.world_count().to_u64(), Some(1));
        let ws = w.to_worldset(10).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.worlds()[0].0.get("r").unwrap().len(), 1);
    }

    #[test]
    fn merge_components_retargets_fields() {
        let mut w = orset_wsd();
        let live = w.live_components();
        let merged = w.merge_components(&live).unwrap();
        w.validate().unwrap();
        assert_eq!(w.num_components(), 1);
        assert_eq!(w.component(merged).unwrap().num_rows(), 4);
        // still the same world-set
        let ws = w.to_worldset(100).unwrap();
        assert_eq!(ws.len(), 4);
        let orig = orset_wsd().to_worldset(100).unwrap();
        assert!(ws.equivalent(&orig, 1e-9));
    }

    #[test]
    fn merge_single_component_is_noop() {
        let mut w = orset_wsd();
        let live = w.live_components();
        assert_eq!(w.merge_components(&live[..1]).unwrap(), live[0]);
        assert!(w.merge_components(&[]).is_err());
    }

    #[test]
    fn compact_after_merge() {
        let mut w = orset_wsd();
        let live = w.live_components();
        w.merge_components(&live).unwrap();
        w.compact();
        w.validate().unwrap();
        assert_eq!(w.slots.len(), 1);
        assert_eq!(w.to_worldset(100).unwrap().len(), 4);
    }

    #[test]
    fn reverse_index_tracks_mutations() {
        let mut w = orset_wsd();
        let live = w.live_components();
        let t0 = w.relation("r").unwrap().tuples[0].tid;
        assert_eq!(w.fields_at(live[0], 0), &[Field::attr(t0, 0)]);
        // aliasing adds a second entry at the same location
        let alias = Field::attr(Tid(99), 0);
        w.alias_field(alias, (live[0], 0));
        assert_eq!(w.fields_at(live[0], 0).len(), 2);
        // re-aliasing moves it
        w.alias_field(alias, (live[1], 0));
        assert_eq!(w.fields_at(live[0], 0).len(), 1);
        assert!(w.fields_at(live[1], 0).contains(&alias));
        // merging retargets the reverse index wholesale
        let merged = w.merge_components(&live).unwrap();
        assert!(w.fields_at(merged, 0).contains(&Field::attr(t0, 0)));
        assert!(w.fields_at(merged, 1).contains(&alias));
        w.unmap_field(alias);
        w.validate().unwrap();
    }

    #[test]
    fn dirty_set_marks_touched_components() {
        let mut w = orset_wsd();
        let live = w.live_components();
        assert_eq!(w.dirty_components(), live, "construction marks dirty");
        let drained = w.take_dirty();
        assert_eq!(drained, live);
        assert!(w.dirty_components().is_empty());
        // mutable access re-marks
        let _ = w.component_mut(live[1]);
        assert_eq!(w.dirty_components(), vec![live[1]]);
    }

    #[test]
    fn typing_is_enforced() {
        let mut w = Wsd::new();
        w.add_relation("r", schema()).unwrap();
        assert!(w.push_certain("r", vec![Value::str("bad"), Value::str("x")]).is_err());
        assert!(w.push_certain("r", vec![Value::Int(1)]).is_err());
        assert!(w
            .push_orset(
                "r",
                vec![
                    OrSetCell::uniform(vec![Value::Int(1), Value::str("bad")]).unwrap(),
                    OrSetCell::certain("x"),
                ],
            )
            .is_err());
        assert!(w.push_certain("missing", vec![]).is_err());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut w = Wsd::new();
        w.add_relation("r", schema()).unwrap();
        assert!(w.add_relation("r", schema()).is_err());
        w.rename_relation("r", "s").unwrap();
        assert!(w.relation("r").is_err());
        assert!(w.relation("s").is_ok());
    }

    #[test]
    fn enumeration_cap() {
        let mut w = Wsd::new();
        w.add_relation("r", schema()).unwrap();
        for _ in 0..30 {
            w.push_orset(
                "r",
                vec![
                    OrSetCell::uniform(vec![Value::Int(0), Value::Int(1)]).unwrap(),
                    OrSetCell::certain("x"),
                ],
            )
            .unwrap();
        }
        assert_eq!(w.world_count().to_decimal(), (1u64 << 30).to_string());
        assert!(w.to_worldset(1000).is_err());
    }

    #[test]
    fn size_bytes_counts_components_and_template() {
        let w = orset_wsd();
        assert!(w.size_bytes() > 0);
        let mut certain = Wsd::new();
        certain.add_relation("r", schema()).unwrap();
        certain
            .push_certain("r", vec![Value::Int(1), Value::str("x")])
            .unwrap();
        assert!(certain.size_bytes() < w.size_bytes());
    }
}
