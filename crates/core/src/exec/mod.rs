//! # The execution layer
//!
//! The pipeline above this module stops at a rule-rewritten logical
//! [`maybms_relational::Query`] tree — the one query language, which the
//! per-world reference (`maybms_worldset::eval`) evaluates as well. That tree is also the plan the
//! executor runs — there is no second, physical tree:
//!
//! * [`plan`] — [`compile`] checks the optimized tree against the
//!   catalog ([`schema_of`]) and drops each `DISTINCT` over an
//!   already set-shaped input; [`explain`] renders a tree for `EXPLAIN`
//!   with a per-node annotation, naming each join's strategy by the
//!   join operator's own key rule.
//! * [`pool`] — [`WorkerPool`], a worker count plus `map`, an
//!   order-preserving parallel map on `std::thread::scope` that is
//!   deterministic at every worker count. Worker count comes from
//!   `MAYBMS_WORKERS` or the machine's available parallelism.
//! * [`run`] — [`Executor`], the one plan walker: each node calls its
//!   tuple-at-a-time operator in [`crate::algebra`] (the only operator
//!   implementations). Two passes go through the pool: per-tuple probe
//!   work in [`crate::algebra::join_op_in`] and the walks of clusters of
//!   several templates in [`crate::prob::tuple_confidence_opts_in`].
//!
//! [`eval`] is `compile` + a sequential `Executor` run, so the library,
//! the SQL session and the tests share this one evaluator. Its reference is world enumeration
//! (`maybms_worldset::eval::eval_in_all_worlds`): property tests in
//! `tests/oracle_properties.rs` hold the executor to it at worker counts
//! 1, 2 and N and require the answer to be byte-identical under the
//! codec across those counts.

pub mod plan;
pub mod pool;
pub mod run;

pub use plan::{compile, explain, schema_of};
pub use pool::{default_workers, global_pool, WorkerPool};
pub use run::{dedup_op, eval, Executor, NodeTrace};
