//! The query language: one relational-algebra tree over named relations.
//!
//! "MayBMS rewrites and optimizes user queries into a sequence of
//! relational queries on world-set decompositions." (paper §1) The tree
//! is defined once, here, below both of its evaluators: the WSD engine
//! (`maybms-core`'s `exec`) runs it on a decomposition, and the per-world
//! reference (`maybms-worldset`'s `eval`) runs it in each explicit world.
//! Nothing converts between them.

use crate::error::Result;
use crate::expr::Expr;

/// A relational-algebra query over the relations of a database.
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
    /// this changes no world; on a decomposition it runs a dedup of
    /// redundant certain templates, dropped over a set-shaped input.
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

    /// The same node over its inputs mapped through `f`, left before
    /// right; the first `Err` is returned and no later input is visited.
    pub fn map_inputs(&self, mut f: impl FnMut(&Query) -> Result<Query>) -> Result<Query> {
        let mut g = |q: &Query| f(q).map(Box::new);
        Ok(match self {
            Query::Table(_) => self.clone(),
            Query::Select(i, p) => Query::Select(g(i)?, p.clone()),
            Query::Project(i, cols) => Query::Project(g(i)?, cols.clone()),
            Query::Product(a, b) => Query::Product(g(a)?, g(b)?),
            Query::Join(a, b, p) => Query::Join(g(a)?, g(b)?, p.clone()),
            Query::Union(a, b) => Query::Union(g(a)?, g(b)?),
            Query::Difference(a, b) => Query::Difference(g(a)?, g(b)?),
            Query::Distinct(i) => Query::Distinct(g(i)?),
            Query::Rename(i, from, to) => Query::Rename(g(i)?, from.clone(), to.clone()),
            Query::Qualify(i, p) => Query::Qualify(g(i)?, p.clone()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn name(q: &Query) -> &str {
        match q {
            Query::Table(n) => n,
            _ => "?",
        }
    }

    #[test]
    fn map_inputs_visits_left_before_right() {
        let q = Query::table("a").join(Query::table("b"), Expr::col("x").eq(Expr::col("y")));
        let mut seen = Vec::new();
        let out = q
            .map_inputs(|i| {
                seen.push(name(i).to_string());
                Ok(Query::table(format!("{}2", name(i))))
            })
            .unwrap();
        assert_eq!(seen, ["a", "b"]);
        let Query::Join(l, r, _) = out else { panic!("a join maps to a join") };
        assert_eq!((name(&l), name(&r)), ("a2", "b2"));
    }

    #[test]
    fn map_inputs_stops_at_the_first_error() {
        let q = Query::table("a").union(Query::table("b"));
        let mut seen = Vec::new();
        let err = q
            .map_inputs(|i| {
                seen.push(name(i).to_string());
                Err(Error::UnknownRelation(name(i).to_string()))
            })
            .unwrap_err();
        assert_eq!(err, Error::UnknownRelation("a".into()));
        assert_eq!(seen, ["a"], "the right input is never visited");
    }

    #[test]
    fn map_inputs_on_a_leaf_visits_nothing() {
        let q = Query::table("t").distinct();
        let leaf = q.inputs()[0];
        let out = leaf.map_inputs(|_| panic!("a table has no inputs")).unwrap();
        assert_eq!(name(&out), "t");
    }
}
