//! Error type shared by the relational engine.

use std::fmt;

/// Errors raised by schema validation, expression binding/evaluation and
/// relational operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A referenced column does not exist in the schema.
    UnknownColumn(String),
    /// Two schemas that must be union-compatible are not.
    SchemaMismatch(String),
    /// A tuple's arity or a value's type does not match the schema.
    TypeError(String),
    /// A relation name was not found in the catalog.
    UnknownRelation(String),
    /// A relation name is already taken in the catalog.
    DuplicateRelation(String),
    /// Malformed CSV input.
    Csv(String),
    /// An expression is invalid in the requested context
    /// (e.g. an aggregate used as a row-level predicate).
    InvalidExpr(String),
    /// Division by zero or other arithmetic failure.
    Arithmetic(String),
    /// Durable-storage failure: I/O error, corrupt page or WAL record,
    /// or an unreadable snapshot/log format.
    Storage(String),
    /// A question only an estimate could answer, such as whether a value
    /// is certain where a Monte-Carlo-sampled cluster alone decides it.
    Undecided(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            Error::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            Error::TypeError(m) => write!(f, "type error: {m}"),
            Error::UnknownRelation(r) => write!(f, "unknown relation: {r}"),
            Error::DuplicateRelation(r) => write!(f, "relation already exists: {r}"),
            Error::Csv(m) => write!(f, "csv error: {m}"),
            Error::InvalidExpr(m) => write!(f, "invalid expression: {m}"),
            Error::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Undecided(m) => write!(f, "undecided: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used across the engine.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(Error::UnknownColumn("x".into()).to_string(), "unknown column: x");
        assert_eq!(
            Error::UnknownRelation("r".into()).to_string(),
            "unknown relation: r"
        );
        assert!(Error::Csv("bad".into()).to_string().contains("bad"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::Arithmetic("div by zero".into()));
    }
}
