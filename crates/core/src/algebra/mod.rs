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

use maybms_relational::{Expr, Result};
use maybms_worldset::eval::WorldQuery;

use crate::normalize;
use crate::wsd::Wsd;

/// A relational-algebra query over the relations of a WSD.
///
/// Mirrors [`maybms_worldset::eval::WorldQuery`] so that oracle tests can
/// run the same query on the decomposition and on the enumerated worlds.
#[derive(Debug, Clone)]
pub enum Query {
    Table(String),
    Select(Box<Query>, Expr),
    Project(Box<Query>, Vec<String>),
    Product(Box<Query>, Box<Query>),
    Join(Box<Query>, Box<Query>, Expr),
    Union(Box<Query>, Box<Query>),
    Difference(Box<Query>, Box<Query>),
    /// Duplicate elimination. Under the paper's set semantics of worlds
    /// this changes no world; it runs a dedup of redundant certain
    /// templates, and [`compile`](crate::exec::compile) drops it over a
    /// set-shaped input.
    Distinct(Box<Query>),
    Rename(Box<Query>, String, String),
    Qualify(Box<Query>, String),
}

impl Query {
    pub fn table(name: impl Into<String>) -> Query {
        Query::Table(name.into())
    }
    pub fn select(self, pred: Expr) -> Query {
        Query::Select(Box::new(self), pred)
    }
    pub fn project<I, S>(self, cols: I) -> Query
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Query::Project(Box::new(self), cols.into_iter().map(Into::into).collect())
    }
    pub fn product(self, rhs: Query) -> Query {
        Query::Product(Box::new(self), Box::new(rhs))
    }
    pub fn join(self, rhs: Query, pred: Expr) -> Query {
        Query::Join(Box::new(self), Box::new(rhs), pred)
    }
    pub fn union(self, rhs: Query) -> Query {
        Query::Union(Box::new(self), Box::new(rhs))
    }
    pub fn difference(self, rhs: Query) -> Query {
        Query::Difference(Box::new(self), Box::new(rhs))
    }
    pub fn distinct(self) -> Query {
        Query::Distinct(Box::new(self))
    }
    pub fn rename(self, from: impl Into<String>, to: impl Into<String>) -> Query {
        Query::Rename(Box::new(self), from.into(), to.into())
    }
    pub fn qualify(self, prefix: impl Into<String>) -> Query {
        Query::Qualify(Box::new(self), prefix.into())
    }

    /// The node's inputs, left before right.
    pub fn inputs(&self) -> Vec<&Query> {
        match self {
            Query::Table(_) => Vec::new(),
            Query::Select(i, _)
            | Query::Project(i, _)
            | Query::Distinct(i)
            | Query::Rename(i, _, _)
            | Query::Qualify(i, _) => vec![i],
            Query::Product(a, b)
            | Query::Join(a, b, _)
            | Query::Union(a, b)
            | Query::Difference(a, b) => vec![a, b],
        }
    }

    /// The same node over its inputs mapped through `f`, left before right.
    pub fn map_inputs(&self, mut f: impl FnMut(&Query) -> Query) -> Query {
        let mut g = |q: &Query| Box::new(f(q));
        match self {
            Query::Table(_) => self.clone(),
            Query::Select(i, p) => Query::Select(g(i), p.clone()),
            Query::Project(i, cols) => Query::Project(g(i), cols.clone()),
            Query::Product(a, b) => Query::Product(g(a), g(b)),
            Query::Join(a, b, p) => Query::Join(g(a), g(b), p.clone()),
            Query::Union(a, b) => Query::Union(g(a), g(b)),
            Query::Difference(a, b) => Query::Difference(g(a), g(b)),
            Query::Distinct(i) => Query::Distinct(g(i)),
            Query::Rename(i, from, to) => Query::Rename(g(i), from.clone(), to.clone()),
            Query::Qualify(i, p) => Query::Qualify(g(i), p.clone()),
        }
    }

    /// Evaluates the query on a decomposition, producing a decomposition of
    /// the answer world-set whose single relation is named `"result"`:
    /// [`compile`](crate::exec::compile) then a sequential
    /// [`Executor`](crate::exec::Executor) run — the path production takes,
    /// minus the optimizer and the worker pool.
    pub fn eval(&self, base: &Wsd) -> Result<Wsd> {
        let plan = crate::exec::compile(self, base)?;
        crate::exec::Executor::sequential().run(&plan, base)
    }

    /// The same query as a [`WorldQuery`], for oracle comparison.
    pub fn to_world_query(&self) -> WorldQuery {
        match self {
            Query::Table(n) => WorldQuery::Table(n.clone()),
            Query::Select(q, p) => WorldQuery::Select(Box::new(q.to_world_query()), p.clone()),
            Query::Project(q, cols) => {
                WorldQuery::Project(Box::new(q.to_world_query()), cols.clone())
            }
            Query::Product(a, b) => WorldQuery::Product(
                Box::new(a.to_world_query()),
                Box::new(b.to_world_query()),
            ),
            Query::Join(a, b, p) => WorldQuery::Join(
                Box::new(a.to_world_query()),
                Box::new(b.to_world_query()),
                p.clone(),
            ),
            Query::Union(a, b) => WorldQuery::Union(
                Box::new(a.to_world_query()),
                Box::new(b.to_world_query()),
            ),
            Query::Difference(a, b) => WorldQuery::Difference(
                Box::new(a.to_world_query()),
                Box::new(b.to_world_query()),
            ),
            Query::Distinct(q) => WorldQuery::Distinct(Box::new(q.to_world_query())),
            Query::Rename(q, f, t) => {
                WorldQuery::Rename(Box::new(q.to_world_query()), f.clone(), t.clone())
            }
            Query::Qualify(q, p) => {
                WorldQuery::Qualify(Box::new(q.to_world_query()), p.clone())
            }
        }
    }
}

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
