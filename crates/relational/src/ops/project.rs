//! Projection (π). Bag semantics; compose with [`super::distinct`] for sets.

use crate::error::Result;
use crate::relation::Relation;

/// π_cols(r): keeps the named columns, in the given order.
pub fn project(r: &Relation, cols: &[&str]) -> Result<Relation> {
    let positions: Vec<usize> = cols
        .iter()
        .map(|c| r.schema().index_of(c))
        .collect::<Result<_>>()?;
    let schema = r.schema().project(cols)?;
    let rows = r.iter().map(|t| t.project(&positions)).collect();
    Ok(Relation::from_rows_unchecked(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::Value;

    fn sample() -> Relation {
        let mut r = Relation::empty(Schema::new(vec![
            ("a", ColumnType::Int),
            ("b", ColumnType::Str),
        ]));
        r.push_values(vec![Value::Int(1), Value::str("x")]).unwrap();
        r.push_values(vec![Value::Int(2), Value::str("y")]).unwrap();
        r
    }

    #[test]
    fn project_reorders() {
        let out = project(&sample(), &["b", "a"]).unwrap();
        assert_eq!(out.schema().names(), vec!["b", "a"]);
        assert_eq!(out.rows()[0].values(), &[Value::str("x"), Value::Int(1)]);
    }

    #[test]
    fn project_is_bag_semantics() {
        let mut r = sample();
        r.push_values(vec![Value::Int(9), Value::str("x")]).unwrap();
        let out = project(&r, &["b"]).unwrap();
        assert_eq!(out.len(), 3); // duplicate "x" kept
    }

    #[test]
    fn missing_column_errors() {
        assert!(project(&sample(), &["zzz"]).is_err());
    }
}
