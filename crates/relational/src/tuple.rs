//! Tuples (rows) of a relation.

use std::fmt;
use std::ops::Index;

use crate::value::Value;

/// A row: a fixed-arity sequence of values. Tuples are schema-agnostic;
/// the owning [`crate::Relation`] enforces arity and types on insert.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple { values }
    }

    pub fn arity(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// In-place access, for a row buffer reused across evaluations.
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// New tuple keeping only the given positions, in order.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(positions.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenation of two tuples (used by products and joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Estimated byte footprint (for E1 storage accounting).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn project_and_concat() {
        let a = t(vec![Value::Int(1), Value::str("x"), Value::Bool(true)]);
        let p = a.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Bool(true), Value::Int(1)]);
        let b = t(vec![Value::Null]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 4);
        assert_eq!(c[3], Value::Null);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = t(vec![Value::Int(1), Value::str("a")]);
        let b = t(vec![Value::Int(1), Value::str("b")]);
        assert!(a < b);
    }

    #[test]
    fn debug_format() {
        let a = t(vec![Value::Int(1), Value::Null]);
        assert_eq!(format!("{a:?}"), "(1, NULL)");
    }
}
