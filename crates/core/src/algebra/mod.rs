//! The relational algebra over world-set decompositions.
//!
//! "MayBMS rewrites and optimizes user queries into a sequence of
//! relational queries on world-set decompositions." (paper §1)
//!
//! Every operator takes template tuples of the input relation(s) and adds
//! *derived* template tuples for the output relation. Derived tuples do not
//! copy data: their fields **alias** the component columns of their inputs,
//! which preserves all correlations. Evaluation ends by extracting the
//! result relation and normalizing.
//!
//! # Per-world decisions
//!
//! A decision is first **settled** (`common::settled`) where it can be:
//! per component holding a field it reads, the distinct possible values
//! of those fields, and the decision on every combination of them — each
//! combination occurs in some world, and there are never more than the
//! rows a merge would produce. If every combination agrees, the decision
//! is made once, in the template: a selection or join keeps or drops the
//! tuple, `DELETE` removes it or leaves it, `UPDATE` edits it or leaves
//! it. A decision that reads only certain fields settles on one row.
//!
//! Otherwise — a selection or join condition, a projection's deletion
//! markers, tuple equality in a difference, a `DELETE`/`UPDATE`
//! predicate, a constraint of [`crate::chase`] — it goes through one
//! kernel, `common::Reads`: it merges the components holding the fields
//! read and each reading tuple's ∃ field, resolves their columns once,
//! and then decides row by row on one reused buffer. Failing rows are
//! marked ⊥ in a fresh column — selections "must not delete component
//! tuples, but should mark \[fields\] using the special value ⊥" (paper
//! §2) — or, in the chase, deleted.
//!
//! **Errors.** A predicate that fails in a world where its tuple exists
//! aborts the statement, exactly like the enumerate-all-worlds
//! reference; one that fails only where its tuple is absent does not.
//! Settling cannot tell the two apart — a combination may occur only in
//! worlds where the tuple is absent — so an error while settling on open
//! fields falls back to the kernel, which applies this rule. On certain
//! fields the error is the statement's.

pub(crate) mod common;
mod difference;
mod dml;
mod join;
mod project;
mod rename;
mod select;
mod union;

pub use difference::difference_op;
pub use dml::{delete_op, update_op, DmlReport};
pub(crate) use join::equality_pairs;
pub use join::{join_op_in, join_op_nested, product_op};
pub use project::project_op;
pub use rename::{qualify_op, rename_op};
pub use select::select_op;
pub use union::union_op;

pub use maybms_relational::Query;
use maybms_relational::Result;

use crate::normalize;
use crate::wsd::Wsd;

/// The final step of query evaluation: a decomposition of `rel` alone,
/// renamed `as_name`, built from its template and the components its
/// fields reach (slots renumbered in increasing old index), then
/// normalized. The rest of `wsd` is dropped without being written, so
/// only the result is normalized ([`Wsd`]'s "Sharing").
pub fn extract(wsd: Wsd, rel: &str, as_name: &str) -> Result<Wsd> {
    let mut answer = wsd.into_relation(rel, as_name)?;
    normalize::normalize(&mut answer);
    Ok(answer)
}
