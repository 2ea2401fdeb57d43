//! Lossless binary codec for whole decompositions — the snapshot payload
//! of the durable storage engine (`maybms-storage` wraps these bytes in
//! checksummed pages; this module only defines the payload).
//!
//! The encoding preserves a [`Wsd`] *exactly*: relation templates with
//! their tuple identifiers, component slots **including tombstones** (so
//! slot indices and dense choice vectors survive), per-column interned
//! dictionaries with their first-occurrence order and raw code columns,
//! probabilities as IEEE 754 bit patterns, the field map, the reverse
//! field index and the dirty set. Decoding therefore reproduces a
//! decomposition whose query results are bit-identical to the original's
//! — the property the oracle suite checks — and re-encoding a decoded
//! WSD yields the same bytes (the field map, the only hash-ordered
//! structure, is written in sorted order).
//!
//! Every count and code is bounds-checked on decode and the result must
//! pass [`Wsd::validate`], so a corrupt payload surfaces as an
//! [`Error::Storage`] instead of a panic or a silently wrong database.
//! The one repair made on load is to release the fields a dropped
//! relation left mapped in older images ([`decode_wsd`]).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use maybms_relational::{Column, Error, Result, Schema};
use maybms_storage::{Reader, Writer};

use crate::cell::Cell;
use crate::component::Component;
use crate::field::{Field, FieldKind, Tid};
use crate::wsd::{Existence, RelTemplate, Slot, TemplateCell, TupleTemplate, Wsd};

/// Version of the payload encoding (independent of the container format).
pub const CODEC_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// encode
// ---------------------------------------------------------------------

fn put_field(w: &mut Writer, f: Field) {
    w.put_u64(f.tid.0);
    match f.kind {
        FieldKind::Attr(p) => {
            w.put_u8(0);
            w.put_u32(p);
        }
        FieldKind::Exists => w.put_u8(1),
    }
}

fn put_cell(w: &mut Writer, c: &Cell) {
    match c {
        Cell::Bottom => w.put_u8(0),
        Cell::Val(v) => {
            w.put_u8(1);
            w.put_value(v);
        }
    }
}

fn put_schema(w: &mut Writer, s: &Schema) {
    w.put_u32(s.len() as u32);
    for c in s.columns() {
        w.put_str(&c.name);
        w.put_column_type(c.ty);
    }
}

fn put_component(w: &mut Writer, c: &Component) {
    w.put_u32(c.num_fields() as u32);
    for &f in c.fields() {
        put_field(w, f);
    }
    w.put_u32(c.num_rows() as u32);
    for &p in c.probs() {
        w.put_f64(p);
    }
    for col in 0..c.num_fields() {
        let (dict, codes) = c.col_parts(col);
        w.put_u32(dict.len() as u32);
        for cell in dict {
            put_cell(w, cell);
        }
        for &code in codes {
            w.put_u32(code);
        }
    }
}

/// Serializes a decomposition to its canonical snapshot payload.
pub fn encode_wsd(wsd: &Wsd) -> Vec<u8> {
    let mut w = Writer::with_capacity(wsd.size_bytes() / 2);
    w.put_u32(CODEC_VERSION);
    w.put_u64(wsd.next_tid);

    // relations (BTreeMap: already in deterministic name order)
    w.put_u32(wsd.relations.len() as u32);
    for (name, tpl) in &wsd.relations {
        w.put_str(name);
        put_schema(&mut w, &tpl.schema);
        w.put_u32(tpl.tuples.len() as u32);
        for t in &tpl.tuples {
            w.put_u64(t.tid.0);
            w.put_u8(match t.exists {
                Existence::Always => 0,
                Existence::Open => 1,
            });
            w.put_u32(t.cells.len() as u32);
            for cell in t.cells.iter() {
                match cell {
                    TemplateCell::Certain(v) => {
                        w.put_u8(0);
                        w.put_value(v);
                    }
                    TemplateCell::Open => w.put_u8(1),
                }
            }
        }
    }

    // component slots, tombstones included
    w.put_u32(wsd.slots.len() as u32);
    for slot in wsd.slots.iter() {
        match &slot.comp {
            None => w.put_u8(0),
            Some(c) => {
                w.put_u8(1);
                put_component(&mut w, c);
            }
        }
    }

    // field map, sorted for deterministic bytes
    let mut entries: Vec<(Field, (usize, usize))> =
        // maybms-lint: allow(determinism) -- hash order is erased by the sort_unstable_by_key on the next line before any byte is emitted
        wsd.field_map.iter().map(|(&f, &loc)| (f, loc)).collect();
    entries.sort_unstable_by_key(|&(f, _)| f);
    w.put_u32(entries.len() as u32);
    for (f, (c, col)) in entries {
        put_field(&mut w, f);
        w.put_u32(c as u32);
        w.put_u32(col as u32);
    }

    // reverse index, exact order preserved
    w.put_u32(wsd.slots.len() as u32);
    for slot in wsd.slots.iter() {
        w.put_u32(slot.rev.len() as u32);
        for fields in slot.rev.iter() {
            w.put_u32(fields.len() as u32);
            for &f in fields {
                put_field(&mut w, f);
            }
        }
    }

    // dirty set
    w.put_u32(wsd.dirty.len() as u32);
    for &i in &wsd.dirty {
        w.put_u32(i as u32);
    }

    w.into_inner()
}

// ---------------------------------------------------------------------
// decode
// ---------------------------------------------------------------------

fn get_field(r: &mut Reader) -> Result<Field> {
    let tid = Tid(r.get_u64()?);
    Ok(match r.get_u8()? {
        0 => Field::attr(tid, r.get_u32()?),
        1 => Field::exists(tid),
        t => return Err(Error::Storage(format!("unknown field kind tag {t}"))),
    })
}

fn get_cell(r: &mut Reader) -> Result<Cell> {
    Ok(match r.get_u8()? {
        0 => Cell::Bottom,
        1 => Cell::Val(r.get_value()?),
        t => return Err(Error::Storage(format!("unknown cell tag {t}"))),
    })
}

fn get_schema(r: &mut Reader) -> Result<Schema> {
    let n = r.get_u32()? as usize;
    let mut cols = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let name = r.get_str()?;
        cols.push(Column::new(name, r.get_column_type()?));
    }
    Ok(Schema::from_columns(cols))
}

fn get_component(r: &mut Reader) -> Result<Component> {
    let nfields = r.get_u32()? as usize;
    let mut fields = Vec::with_capacity(nfields.min(1 << 16));
    for _ in 0..nfields {
        fields.push(get_field(r)?);
    }
    let nrows = r.get_u32()? as usize;
    if nrows > r.remaining() {
        return Err(Error::Storage(format!(
            "corrupt row count {nrows} exceeds remaining payload"
        )));
    }
    let mut probs = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        probs.push(r.get_f64()?);
    }
    Component::from_parts(fields, probs, || {
        let dict_len = r.get_u32()? as usize;
        if dict_len > r.remaining() {
            return Err(Error::Storage(format!(
                "corrupt dictionary length {dict_len} exceeds remaining payload"
            )));
        }
        let mut dict = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            dict.push(get_cell(r)?);
        }
        let mut codes = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            codes.push(r.get_u32()?);
        }
        Ok((dict, codes))
    })
}

/// Decodes a snapshot payload back into a decomposition, verifying all
/// structural invariants ([`Wsd::validate`]) before returning it. An
/// image whose dropped relations left their fields mapped (written before
/// [`Wsd::remove_relation`] unmapped them) is repaired first: those fields
/// are unmapped and the components only they read dropped, as a
/// `DROP TABLE` does now.
pub fn decode_wsd(bytes: &[u8]) -> Result<Wsd> {
    let mut r = Reader::new(bytes);
    let version = r.get_u32()?;
    if version != CODEC_VERSION {
        return Err(Error::Storage(format!(
            "unsupported WSD payload version {version} (this build reads {CODEC_VERSION})"
        )));
    }
    let next_tid = r.get_u64()?;

    let nrels = r.get_u32()? as usize;
    let mut relations = BTreeMap::new();
    for _ in 0..nrels {
        let name = r.get_str()?;
        let schema = get_schema(&mut r)?;
        let ntuples = r.get_u32()? as usize;
        if ntuples > r.remaining() {
            return Err(Error::Storage(format!(
                "corrupt tuple count {ntuples} exceeds remaining payload"
            )));
        }
        let mut tuples = Vec::with_capacity(ntuples);
        for _ in 0..ntuples {
            let tid = Tid(r.get_u64()?);
            let exists = match r.get_u8()? {
                0 => Existence::Always,
                1 => Existence::Open,
                t => return Err(Error::Storage(format!("unknown existence tag {t}"))),
            };
            let ncells = r.get_u32()? as usize;
            let mut cells = Vec::with_capacity(ncells.min(1 << 16));
            for _ in 0..ncells {
                cells.push(match r.get_u8()? {
                    0 => TemplateCell::Certain(r.get_value()?),
                    1 => TemplateCell::Open,
                    t => {
                        return Err(Error::Storage(format!("unknown template cell tag {t}")))
                    }
                });
            }
            // one memcpy into the shared allocation: measured cheaper than
            // moving the cells in one by one
            tuples.push(TupleTemplate { tid, cells: cells.into(), exists });
        }
        if relations.insert(name.clone(), Arc::new(RelTemplate { schema, tuples })).is_some() {
            return Err(Error::Storage(format!("duplicate relation {name} in snapshot")));
        }
    }

    let nslots = r.get_u32()? as usize;
    if nslots > r.remaining() {
        return Err(Error::Storage(format!(
            "corrupt component count {nslots} exceeds remaining payload"
        )));
    }
    let mut components: Vec<Option<Arc<Component>>> = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        components.push(match r.get_u8()? {
            0 => None,
            1 => Some(Arc::new(get_component(&mut r)?)),
            t => return Err(Error::Storage(format!("unknown component slot tag {t}"))),
        });
    }

    let nmap = r.get_u32()? as usize;
    if nmap > r.remaining() {
        return Err(Error::Storage(format!(
            "corrupt field map count {nmap} exceeds remaining payload"
        )));
    }
    let mut field_map = HashMap::with_capacity(nmap);
    for _ in 0..nmap {
        let f = get_field(&mut r)?;
        let c = r.get_u32()? as usize;
        let col = r.get_u32()? as usize;
        if field_map.insert(f, (c, col)).is_some() {
            return Err(Error::Storage(format!("duplicate field {f} in snapshot field map")));
        }
    }

    let nrev = r.get_u32()? as usize;
    if nrev != nslots {
        return Err(Error::Storage(format!(
            "reverse index covers {nrev} slots for {nslots} components"
        )));
    }
    // each row is read into `row` and moved into its own shared
    // allocation: one allocation per row, as many as a `Vec` would take
    let mut slots = Vec::with_capacity(nrev);
    let mut row: Vec<Vec<Field>> = Vec::new();
    for comp in components {
        let ncols = r.get_u32()? as usize;
        if ncols > r.remaining() {
            return Err(Error::Storage(format!(
                "corrupt reverse-index width {ncols} exceeds remaining payload"
            )));
        }
        for _ in 0..ncols {
            let n = r.get_u32()? as usize;
            if n > r.remaining() {
                return Err(Error::Storage(format!(
                    "corrupt reverse-index entry count {n} exceeds remaining payload"
                )));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(get_field(&mut r)?);
            }
            row.push(fields);
        }
        slots.push(Slot { comp, rev: row.drain(..).collect() });
    }

    let ndirty = r.get_u32()? as usize;
    if ndirty > r.remaining() {
        return Err(Error::Storage(format!(
            "corrupt dirty count {ndirty} exceeds remaining payload"
        )));
    }
    let mut dirty = Vec::with_capacity(ndirty);
    for _ in 0..ndirty {
        let i = r.get_u32()? as usize;
        if i >= nslots {
            return Err(Error::Storage(format!(
                "dirty index {i} out of range for {nslots} component slots"
            )));
        }
        dirty.push(i);
    }
    // written in ascending order, so the set is built in one bulk pass
    let dirty: BTreeSet<usize> = dirty.into_iter().collect();
    r.expect_end()?;

    let mut wsd = Wsd::from_parts(relations, slots, field_map, dirty, next_tid);
    let orphans = wsd.unmap_orphan_fields();
    wsd.validate()
        .map_err(|e| Error::Storage(format!("snapshot failed validation on load: {e}")))?;
    if orphans {
        // as `DROP TABLE` does now, drop the components only they read
        crate::normalize::normalize(&mut wsd);
    }
    Ok(wsd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::medical_wsd;
    use maybms_relational::{ColumnType, Value};
    use maybms_worldset::OrSetCell;

    fn demo_wsd() -> Wsd {
        let mut w = medical_wsd();
        // exercise tombstones, merged components and a dirty set
        let live = w.live_components();
        if live.len() >= 2 {
            w.merge_components(&live[..2]).unwrap();
        }
        w.add_relation(
            "extra",
            Schema::new(vec![("x", ColumnType::Int), ("s", ColumnType::Str)]),
        )
        .unwrap();
        w.push_certain("extra", vec![Value::Int(4), Value::str("certain")]).unwrap();
        w.push_orset(
            "extra",
            vec![
                OrSetCell::weighted(vec![(Value::Int(1), 0.25), (Value::Int(2), 0.75)]).unwrap(),
                OrSetCell::certain("q"),
            ],
        )
        .unwrap();
        w
    }

    #[test]
    fn round_trip_is_lossless_and_deterministic() {
        let wsd = demo_wsd();
        wsd.validate().unwrap();
        let bytes = encode_wsd(&wsd);
        let back = decode_wsd(&bytes).unwrap();
        back.validate().unwrap();

        // world-sets identical
        let a = wsd.to_worldset(100_000).unwrap();
        let b = back.to_worldset(100_000).unwrap();
        assert!(a.equivalent(&b, 0.0), "decoded WSD must be bit-identical");

        // structure identical: counts, stats, tombstones, dirty set
        assert_eq!(wsd.stats(), back.stats());
        assert_eq!(wsd.num_component_slots(), back.num_component_slots());
        assert_eq!(wsd.has_tombstones(), back.has_tombstones());
        assert_eq!(wsd.dirty_components(), back.dirty_components());
        assert_eq!(wsd.num_mapped_fields(), back.num_mapped_fields());

        // re-encoding reproduces the same bytes
        assert_eq!(bytes, encode_wsd(&back));
    }

    #[test]
    fn empty_wsd_round_trips() {
        let wsd = Wsd::new();
        let back = decode_wsd(&encode_wsd(&wsd)).unwrap();
        assert_eq!(back.world_count().to_u64(), Some(1));
        assert_eq!(back.stats(), wsd.stats());
    }

    #[test]
    fn special_floats_survive() {
        let mut w = Wsd::new();
        w.add_relation("f", Schema::new(vec![("v", ColumnType::Float)])).unwrap();
        w.push_certain("f", vec![Value::Float(-0.0)]).unwrap();
        w.push_certain("f", vec![Value::Float(f64::INFINITY)]).unwrap();
        w.push_certain("f", vec![Value::Float(1e-300)]).unwrap();
        let back = decode_wsd(&encode_wsd(&w)).unwrap();
        let tpl = back.relation("f").unwrap();
        let bits: Vec<u64> = tpl
            .tuples
            .iter()
            .map(|t| match &t.cells[0] {
                TemplateCell::Certain(Value::Float(f)) => f.to_bits(),
                other => panic!("unexpected cell {other:?}"),
            })
            .collect();
        assert_eq!(
            bits,
            vec![(-0.0f64).to_bits(), f64::INFINITY.to_bits(), 1e-300f64.to_bits()]
        );
    }

    #[test]
    fn corrupt_payloads_error_not_panic() {
        let wsd = demo_wsd();
        let bytes = encode_wsd(&wsd);
        // truncations at every prefix length must fail cleanly
        for cut in [0, 1, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_wsd(&bytes[..cut]).is_err(), "cut at {cut} must error");
        }
        // wrong version
        let mut v = bytes.clone();
        v[0] = 0xFF;
        assert!(decode_wsd(&v).is_err());
        // trailing garbage
        let mut t = bytes.clone();
        t.push(0);
        assert!(decode_wsd(&t).is_err());
    }

    #[test]
    fn validation_runs_on_load() {
        // hand-craft a payload whose field map points at a dead component:
        // encode a valid wsd, then flip its single live component to a
        // tombstone in the re-encoded form via the public API instead —
        // simplest is to corrupt a probability so validate fails
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_orset(
            "r",
            vec![OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap()],
        )
        .unwrap();
        let live = w.live_components();
        w.component_mut(live[0]).unwrap().set_prob(0, 0.9); // sums to 1.4
        let bytes = encode_wsd(&w);
        let err = decode_wsd(&bytes).unwrap_err();
        assert!(err.to_string().contains("validation"), "{err}");
    }

    /// An image whose dropped relation left its fields mapped opens, and
    /// holds what dropping the relation gives now.
    #[test]
    fn orphan_fields_of_a_dropped_relation_are_released_on_load() {
        let mut w = Wsd::new();
        let two = || OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap();
        for (name, rows) in [("t", 2), ("u", 1)] {
            w.add_relation(name, Schema::new(vec![("a", ColumnType::Int)])).unwrap();
            for _ in 0..rows {
                w.push_orset(name, vec![two()]).unwrap();
            }
        }
        let mut dropped = w.clone();
        dropped.remove_relation("t").unwrap();
        crate::normalize::normalize(&mut dropped);
        // the relation gone, its fields still mapped
        w.relations.remove("t");
        assert!(w.validate().is_err());

        let back = decode_wsd(&encode_wsd(&w)).unwrap();
        back.validate().unwrap();
        assert_eq!((back.num_mapped_fields(), back.live_components().len()), (1, 1));
        assert_eq!(encode_wsd(&back), encode_wsd(&dropped));
        // an image without orphans reopens to the same bytes
        assert_eq!(encode_wsd(&decode_wsd(&encode_wsd(&back)).unwrap()), encode_wsd(&back));
    }
}
