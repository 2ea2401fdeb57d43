//! # maybms-relational
//!
//! An in-memory relational engine: the substrate on which the MayBMS
//! world-set decomposition layer runs. The original MayBMS prototype was
//! implemented on top of PostgreSQL; this crate plays PostgreSQL's role,
//! providing typed relations, an expression language, and the full
//! relational algebra (selection, projection, product, joins, union,
//! difference, distinct, sorting, renaming) — and the query language,
//! [`Query`], that both MayBMS evaluators read: the world-set
//! decomposition engine and the per-world reference.
//!
//! The engine is deliberately simple — materialized row-store operators —
//! because the WSD layer's rewriting only needs a *faithful* relational
//! algebra, and because the paper's query-time comparison (E3) runs both the
//! incomplete-information side and the "conventional single world" side on
//! the same engine, exactly as both sides used PostgreSQL in the paper.
//!
//! ## Quick example
//!
//! ```
//! use maybms_relational::{Relation, Schema, ColumnType, Value, Expr, ops};
//!
//! let schema = Schema::new(vec![
//!     ("diagnosis", ColumnType::Str),
//!     ("test", ColumnType::Str),
//! ]);
//! let mut r = Relation::empty(schema);
//! r.push_values(vec![Value::str("pregnancy"), Value::str("ultrasound")]).unwrap();
//! r.push_values(vec![Value::str("hypothyroidism"), Value::str("TSH")]).unwrap();
//!
//! let preg = ops::select(&r, &Expr::col("diagnosis").eq(Expr::lit(Value::str("pregnancy")))).unwrap();
//! assert_eq!(preg.len(), 1);
//! let tests = ops::project(&preg, &["test"]).unwrap();
//! assert_eq!(tests.rows()[0][0], Value::str("ultrasound"));
//! ```

#![forbid(unsafe_code)]

pub mod csv;
pub mod error;
pub mod expr;
pub mod ops;
pub mod pretty;
pub mod query;
pub mod relation;
pub mod schema;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use expr::{BinOp, BoundExpr, CmpOp, Expr};
pub use query::Query;
pub use relation::Relation;
pub use schema::{Column, ColumnType, Schema};
pub use tuple::Tuple;
pub use value::Value;
