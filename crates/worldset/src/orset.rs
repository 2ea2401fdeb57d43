//! Attribute-level or-set relations.
//!
//! An or-set relation looks like an ordinary relation except that each field
//! holds a *set of alternatives* (with probabilities). This is the noise
//! model of the paper's census experiment: "We introduced noise with
//! different degree of incompleteness to the data by replacing randomly
//! picked values with or-sets." Every field's choice is independent of all
//! other fields — exactly the situation WSDs decompose maximally.

use maybms_relational::{Error, Relation, Result, Schema, Tuple, Value};

/// One field of an or-set relation: a non-empty list of alternatives with
/// probabilities summing to 1. A *certain* cell has a single alternative
/// with probability 1.
#[derive(Debug, Clone, PartialEq)]
pub struct OrSetCell {
    alternatives: Vec<(Value, f64)>,
}

impl OrSetCell {
    /// A certain (single-alternative) cell.
    pub fn certain(v: impl Into<Value>) -> OrSetCell {
        OrSetCell { alternatives: vec![(v.into(), 1.0)] }
    }

    /// An or-set with uniform probabilities.
    pub fn uniform(vals: Vec<Value>) -> Result<OrSetCell> {
        if vals.is_empty() {
            return Err(Error::InvalidExpr("empty or-set".into()));
        }
        let p = 1.0 / vals.len() as f64;
        Ok(OrSetCell {
            alternatives: vals.into_iter().map(|v| (v, p)).collect(),
        })
    }

    /// An or-set with explicit probabilities; they must be positive and sum
    /// to 1 (within 1e-9).
    pub fn weighted(alts: Vec<(Value, f64)>) -> Result<OrSetCell> {
        if alts.is_empty() {
            return Err(Error::InvalidExpr("empty or-set".into()));
        }
        let total: f64 = alts.iter().map(|(_, p)| *p).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(Error::InvalidExpr(format!(
                "or-set probabilities sum to {total}, expected 1"
            )));
        }
        if alts.iter().any(|(_, p)| *p <= 0.0) {
            return Err(Error::InvalidExpr("non-positive alternative probability".into()));
        }
        Ok(OrSetCell { alternatives: alts })
    }

    pub fn alternatives(&self) -> &[(Value, f64)] {
        &self.alternatives
    }

    /// Number of alternatives.
    pub fn width(&self) -> usize {
        self.alternatives.len()
    }

    /// True iff the cell has exactly one alternative.
    pub fn is_certain(&self) -> bool {
        self.alternatives.len() == 1
    }

    /// The single value of a certain cell.
    pub fn certain_value(&self) -> Option<&Value> {
        if self.is_certain() {
            Some(&self.alternatives[0].0)
        } else {
            None
        }
    }

    /// Estimated byte footprint, mirroring [`Value::size_bytes`] plus the
    /// probability column the paper's probabilistic extension adds.
    pub fn size_bytes(&self) -> usize {
        self.alternatives
            .iter()
            .map(|(v, _)| v.size_bytes() + std::mem::size_of::<f64>())
            .sum()
    }
}

/// A relation whose fields are or-sets. All field choices are independent.
#[derive(Debug, Clone, PartialEq)]
pub struct OrSetRelation {
    schema: Schema,
    rows: Vec<Vec<OrSetCell>>,
}

impl OrSetRelation {
    pub fn empty(schema: Schema) -> OrSetRelation {
        OrSetRelation { schema, rows: Vec::new() }
    }

    /// Lifts an ordinary relation: every field becomes a certain cell.
    pub fn from_relation(r: &Relation) -> OrSetRelation {
        let rows = r
            .iter()
            .map(|t| t.values().iter().map(|v| OrSetCell::certain(v.clone())).collect())
            .collect();
        OrSetRelation { schema: r.schema().clone(), rows }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn rows(&self) -> &[Vec<OrSetCell>] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validates arity and types of all alternatives, then appends.
    pub fn push(&mut self, row: Vec<OrSetCell>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::TypeError(format!(
                "or-set row arity {} does not match schema arity {}",
                row.len(),
                self.schema.len()
            )));
        }
        for (i, cell) in row.iter().enumerate() {
            let col = self.schema.column(i);
            for (v, _) in cell.alternatives() {
                if !v.matches_type(col.ty) {
                    return Err(Error::TypeError(format!(
                        "alternative {v} not valid for column {} of type {}",
                        col.name, col.ty
                    )));
                }
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Replaces one field with an or-set (used by the noise injector).
    pub fn set_cell(&mut self, row: usize, col: usize, cell: OrSetCell) -> Result<()> {
        let column = self.schema.column(col);
        for (v, _) in cell.alternatives() {
            if !v.matches_type(column.ty) {
                return Err(Error::TypeError(format!(
                    "alternative {v} not valid for column {}",
                    column.name
                )));
            }
        }
        let r = self
            .rows
            .get_mut(row)
            .ok_or_else(|| Error::InvalidExpr(format!("row {row} out of range")))?;
        r[col] = cell;
        Ok(())
    }

    pub fn cell(&self, row: usize, col: usize) -> &OrSetCell {
        &self.rows[row][col]
    }

    /// Number of uncertain (multi-alternative) fields.
    pub fn uncertain_fields(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .filter(|c| !c.is_certain())
            .count()
    }

    /// log2 of the number of possible worlds (sum of log2 of field widths).
    /// The paper's census scenario yields numbers like 2^624449, far beyond
    /// machine integers; `maybms-core`'s `WorldCount` also counts in log
    /// space and is exact only up to `u128`.
    pub fn world_count_log2(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .map(|c| (c.width() as f64).log2())
            .sum()
    }

    /// One world picked by always taking the first (most likely by
    /// convention) alternative — the "single world" used by conventional
    /// processing in E3.
    pub fn first_world(&self) -> Relation {
        let rows: Vec<Tuple> = self
            .rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|c| c.alternatives()[0].0.clone()).collect()))
            .collect();
        Relation::from_rows_unchecked(self.schema.clone(), rows)
    }

    /// Estimated storage footprint of the or-set representation.
    pub fn size_bytes(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(OrSetCell::size_bytes).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_relational::ColumnType;

    fn schema() -> Schema {
        Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Str)])
    }

    #[test]
    fn certain_and_uniform_cells() {
        let c = OrSetCell::certain(5i64);
        assert!(c.is_certain());
        assert_eq!(c.certain_value(), Some(&Value::Int(5)));
        let u = OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap();
        assert_eq!(u.width(), 2);
        assert!((u.alternatives()[0].1 - 0.5).abs() < 1e-12);
        assert!(OrSetCell::uniform(vec![]).is_err());
    }

    #[test]
    fn weighted_validates() {
        assert!(OrSetCell::weighted(vec![(Value::Int(1), 0.4), (Value::Int(2), 0.6)]).is_ok());
        assert!(OrSetCell::weighted(vec![(Value::Int(1), 0.4), (Value::Int(2), 0.4)]).is_err());
        assert!(OrSetCell::weighted(vec![(Value::Int(1), 1.5), (Value::Int(2), -0.5)]).is_err());
        assert!(OrSetCell::weighted(vec![]).is_err());
    }

    #[test]
    fn push_validates_types() {
        let mut r = OrSetRelation::empty(schema());
        assert!(r
            .push(vec![OrSetCell::certain(1i64), OrSetCell::certain("x")])
            .is_ok());
        assert!(r
            .push(vec![OrSetCell::certain("wrong"), OrSetCell::certain("x")])
            .is_err());
        assert!(r.push(vec![OrSetCell::certain(1i64)]).is_err());
    }

    #[test]
    fn world_count_log2() {
        let mut r = OrSetRelation::empty(schema());
        r.push(vec![
            OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap(),
            OrSetCell::certain("x"),
        ])
        .unwrap();
        r.push(vec![
            OrSetCell::uniform(vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)])
                .unwrap(),
            OrSetCell::certain("y"),
        ])
        .unwrap();
        assert!((r.world_count_log2() - 3.0).abs() < 1e-12); // 2 * 4 = 8 worlds
        assert_eq!(r.uncertain_fields(), 2);
    }

    #[test]
    fn from_relation_round_trip_first_world() {
        let mut rel = Relation::empty(schema());
        rel.push_values(vec![Value::Int(7), Value::str("q")]).unwrap();
        let os = OrSetRelation::from_relation(&rel);
        assert_eq!(os.first_world(), rel);
        assert_eq!(os.uncertain_fields(), 0);
    }

    #[test]
    fn set_cell_replaces_and_validates() {
        let mut rel = Relation::empty(schema());
        rel.push_values(vec![Value::Int(7), Value::str("q")]).unwrap();
        let mut os = OrSetRelation::from_relation(&rel);
        os.set_cell(0, 0, OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap())
            .unwrap();
        assert_eq!(os.uncertain_fields(), 1);
        assert!(os
            .set_cell(0, 0, OrSetCell::certain("not an int"))
            .is_err());
        assert!(os.set_cell(5, 0, OrSetCell::certain(1i64)).is_err());
    }
}
