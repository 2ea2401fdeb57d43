//! # maybms-core
//!
//! The heart of MayBMS-rs: **probabilistic world-set decompositions**
//! (WSDs), as introduced in *MayBMS: Managing Incomplete Information with
//! Probabilistic World-Set Decompositions* (Antova, Koch, Olteanu, ICDE
//! 2007).
//!
//! A WSD represents a finite set of possible worlds — with probabilities —
//! as a relational product of small *component* relations; see
//! [`wsd::Wsd`]. This crate provides:
//!
//! * the data model: [`field::Field`]s, ⊥-[`cell::Cell`]s,
//!   [`component::Component`]s and [`wsd::Wsd`];
//! * construction from or-set relations ([`wsd::Wsd::push_orset`]) and
//!   *exact decomposition* of explicit world-sets ([`convert`]);
//! * [`normalize`]: the paper's normalization of WSDs after queries;
//! * [`factorize`]: splitting components back into independent factors;
//! * [`algebra`]: the full relational algebra evaluated directly on the
//!   decomposition — selection marks fields ⊥ instead of deleting rows;
//! * [`prob`]: exact confidence computation (`prob()`), possible and
//!   certain answers;
//! * [`chase`]: data cleaning by enforcing integrity constraints;
//! * [`wsd::WorldCount`]: world counting in log space, exact up to
//!   `u128` (the paper's world-sets exceed 2^624449 worlds);
//! * [`examples`]: the paper's §2 medical WSD, verbatim.
//!
//! # Performance architecture
//!
//! The paper's pitch is that `10^(10^6)`-world databases are *cheap to
//! process*; the engine's hot paths are built around the structures that
//! keep that promise at scale:
//!
//! **Columnar components.** A [`component::Component`] stores its cells
//! column-major with a per-column dictionary of interned cells: one
//! `u32` code per row per column plus each distinct [`cell::Cell`] stored
//! once. ⊥-propagation, constant detection, row dedup, projection and
//! factorization marginals scan contiguous code slices and compare `u32`s
//! — never cloning row vectors. [`component::CompRow`] remains as a
//! materialized view for construction, display and tests; mutation
//! closures receive a borrowed [`component::RowRef`].
//!
//! **The reverse field index.** A [`wsd::Wsd`] maintains, next to the
//! forward map *field → (component, column)*, a reverse index
//! *(component, column) → fields* updated incrementally by
//! `add_component`, `alias_field`, `merge_components`, `compact` and the
//! column remaps of normalization. Invariants: every forward entry
//! appears in the reverse index at its mapped location, and every mapped
//! field belongs to a live template tuple ([`wsd::Wsd::validate`] checks
//! both). Normalization ownership queries and `merge_components`
//! retargeting are O(fields of the touched components) instead of
//! O(all fields) or O(all templates).
//!
//! **Dirty-set incremental normalization.** Mutations mark touched
//! component indices dirty; [`normalize::normalize`] drains the dirty set
//! to a fixpoint, re-marking a component only when a pass actually
//! changes it (⊥ written, column dropped, rows merged). Monotonicity (⊥
//! cells only grow; tuples/columns/rows only shrink) guarantees
//! termination; already-normalized regions are never rescanned.
//! [`normalize::normalize_from_scratch`] is the full-pass escape hatch
//! and the oracle reference.
//!
//! **Structural sharing.** A [`wsd::Wsd`] is a persistent value: its
//! relation templates, tuple cells, components and reverse-index rows
//! each sit behind an `Arc`, so a clone copies pointers and every
//! mutation copies only what it writes (see the `wsd` module's
//! "Sharing"). The executor's per-statement working copy and a writer's
//! copy-on-write of a published snapshot therefore cost what the
//! statement touches, not the size of the database.
//!
//! **Hash-partitioned joins and dense choice vectors.** When a join
//! predicate contains a cross-side equality conjunct,
//! [`algebra::join_op_in`] buckets right tuples by possible key values
//! and probes instead of the O(|L|·|R|) nested loop
//! ([`algebra::join_op_nested`], which runs θ-joins and products and is
//! what the hash path is tested against). World enumeration
//! ([`wsd::Wsd::to_worldset`], [`wsd::Wsd::instantiate`]) and confidence
//! computation ([`prob`]) walk choice spaces with a flat `Vec<usize>`
//! indexed by component id and field locations resolved once per
//! cluster — no per-world hash maps.
//!
//! **One evaluator and the worker pool.** There is one plan tree:
//! [`exec::compile`] checks the optimized [`algebra::Query`] (the query
//! language of `maybms-relational`, re-exported) against the catalog and
//! drops `DISTINCT` over set-shaped inputs, and [`exec::Executor`] — the
//! only plan walker; [`exec::eval`] is `compile` + a sequential run of
//! it — evaluates each node with its
//! tuple-at-a-time [`algebra`] operator, the only operator
//! implementations (a join picks hash or nested scan itself). Its
//! reference is per-world evaluation in `maybms-worldset`, which reads
//! the same `Query`. [`exec::WorkerPool`] (a worker count,
//! `MAYBMS_WORKERS` env override, and a `std::thread::scope` map)
//! carries the two embarrassingly parallel passes — per-cluster
//! confidence distributions and per-tuple join probing —
//! deterministically at every worker count.
//!
//! **Durability.** [`codec`] serializes a whole decomposition to a
//! lossless, versioned binary payload (and validates on load); the
//! `maybms-storage` crate stores that payload as checksummed pages with
//! a write-ahead log, and the SQL session layer wires `Session::open` /
//! `CHECKPOINT` on top.
//!
//! The layer-by-layer picture of the whole system (engine → executor →
//! storage/replication → session) and the invariants each layer's tests
//! enforce is in `docs/ARCHITECTURE.md` at the repository root.

#![forbid(unsafe_code)]

pub mod algebra;
pub mod cell;
pub mod chase;
pub mod codec;
pub mod component;
pub mod convert;
pub mod display;
pub mod examples;
pub mod exec;
pub mod factorize;
pub mod field;
pub mod normalize;
pub mod prob;
pub mod stats;
pub mod wsd;

pub use cell::Cell;
pub use component::{CompRow, Component};
pub use field::{Field, FieldKind, Tid};
pub use wsd::{Existence, RelTemplate, TemplateCell, TupleTemplate, WorldCount, Wsd, WsdShape};
