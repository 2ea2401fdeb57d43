//! The relational algebra over materialized [`crate::Relation`]s.
//!
//! Every operator is a pure function from input relation(s) to a fresh
//! output relation. This is the algebra that MayBMS query rewriting targets:
//! a query over a world-set decomposition becomes a *sequence of these
//! operations over the component relations* (plus ⊥-marking, which lives in
//! `maybms-core`).

mod join;
mod product;
mod project;
mod rename;
mod select;
mod setops;
mod sort;

pub use join::{hash_join, nested_loop_join, theta_join};
pub use product::product;
pub use project::project;
pub use rename::{qualify, rename};
pub use select::select;
pub use setops::{difference, distinct, intersect, union, union_all};
pub use sort::{sort, sort_by};
