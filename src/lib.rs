//! # MayBMS-rs
//!
//! A from-scratch Rust reproduction of **MayBMS: Managing Incomplete
//! Information with Probabilistic World-Set Decompositions** (Antova, Koch,
//! Olteanu — ICDE 2007).
//!
//! This facade crate re-exports the whole system:
//!
//! * [`relational`] — the in-memory relational engine (PostgreSQL's role).
//! * [`worldset`] — explicit possible worlds, or-set relations, per-world
//!   query evaluation (oracle and "conventional processing" baseline).
//! * [`core`] — the paper's contribution: probabilistic world-set
//!   decompositions, their normalization, the relational algebra over them,
//!   confidence computation and chase-based data cleaning.
//! * [`sql`] — the SQL-like query language with incompleteness/probability
//!   constructs (`PROB()`, `POSSIBLE`, `CERTAIN`, `CONF`).
//! * [`storage`] — the durable storage engine: paged, checksummed
//!   snapshots plus a write-ahead log with crash recovery
//!   (`maybms_sql::Session::open` / `CHECKPOINT` sit on top).
//! * [`census`] — the synthetic census workload used by the experiments.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the paper's §2 medical scenario, or:
//!
//! ```
//! use maybms::prelude::*;
//!
//! // Build the paper's medical WSD and ask the paper's query.
//! let wsd = maybms_core::examples::medical_wsd();
//! let q = maybms_core::algebra::Query::table("R")
//!     .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
//!     .project(["test"]);
//! let ans = maybms_core::exec::eval(&q, &wsd).unwrap();
//! let conf = ans.tuple_confidence("result").unwrap();
//! assert_eq!(conf.len(), 1);
//! assert!((conf[0].1 - 0.4).abs() < 1e-9); // P(ultrasound) = 0.4
//! ```

#![forbid(unsafe_code)]

pub use maybms_census as census;
pub use maybms_core as core;
pub use maybms_relational as relational;
pub use maybms_sql as sql;
pub use maybms_storage as storage;
pub use maybms_worldset as worldset;

/// Common imports for applications.
pub mod prelude {
    pub use maybms_census;
    pub use maybms_core;
    pub use maybms_relational::{
        ops, ColumnType, Expr, Relation, Schema, Tuple, Value,
    };
    pub use maybms_sql;
    pub use maybms_worldset::{OrSetCell, OrSetRelation, World, WorldSet};
}
