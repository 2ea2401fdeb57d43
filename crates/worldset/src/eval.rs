//! Per-world query evaluation: the semantics every WSD operator must match.
//!
//! "The semantics of query evaluation on world-sets is to evaluate the query
//! in each of the worlds." (paper, §2) The query is the engine's own
//! [`Query`] tree; this evaluator runs it with the row-store operators of
//! [`maybms_relational::ops`] on each explicit world, independently of the
//! decomposition engine.

use maybms_relational::{ops, Error, Query, Relation, Result};

use crate::world::{World, WorldSet};

/// Evaluates the query inside one world.
pub fn eval_in_world(q: &Query, w: &World) -> Result<Relation> {
    let ev = |q: &Query| eval_in_world(q, w);
    Ok(match q {
        Query::Table(n) => w
            .get(n)
            .ok_or_else(|| Error::UnknownRelation(n.clone()))?
            .clone(),
        Query::Select(i, pred) => ops::select(&ev(i)?, pred)?,
        Query::Project(i, cols) => {
            let names: Vec<&str> = cols.iter().map(String::as_str).collect();
            ops::project(&ev(i)?, &names)?
        }
        Query::Product(a, b) => ops::product(&ev(a)?, &ev(b)?),
        Query::Join(a, b, pred) => ops::theta_join(&ev(a)?, &ev(b)?, pred)?,
        Query::Union(a, b) => ops::union(&ev(a)?, &ev(b)?)?,
        Query::Difference(a, b) => ops::difference(&ev(a)?, &ev(b)?)?,
        Query::Distinct(i) => ops::distinct(&ev(i)?),
        Query::Rename(i, from, to) => ops::rename(&ev(i)?, from, to)?,
        Query::Qualify(i, prefix) => ops::qualify(&ev(i)?, prefix),
    })
}

/// Evaluates a query in every world of the set, producing the answer
/// world-set (relation name: `"result"`).
pub fn eval_in_all_worlds(ws: &WorldSet, q: &Query) -> Result<WorldSet> {
    ws.map(|w| Ok(World::single("result", eval_in_world(q, w)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_relational::{ColumnType, Expr, Schema, Value};

    fn medical_world(diag: &str, test: &str, symptom: &str) -> World {
        let mut r = Relation::empty(Schema::new(vec![
            ("diagnosis", ColumnType::Str),
            ("test", ColumnType::Str),
            ("symptom", ColumnType::Str),
        ]));
        r.push_values(vec![Value::str(diag), Value::str(test), Value::str(symptom)])
            .unwrap();
        World::single("R", r)
    }

    /// The paper's §2 example evaluated explicitly: four worlds, query
    /// `select Test from R where Diagnosis='pregnancy'`; the ultrasound
    /// answer has total probability 0.4.
    #[test]
    fn paper_query_in_explicit_worlds() {
        let ws = WorldSet::new(vec![
            (medical_world("pregnancy", "ultrasound", "weight gain"), 0.4 * 0.7),
            (medical_world("pregnancy", "ultrasound", "fatigue"), 0.4 * 0.3),
            (medical_world("hypothyroidism", "TSH", "weight gain"), 0.6 * 0.7),
            (medical_world("hypothyroidism", "TSH", "fatigue"), 0.6 * 0.3),
        ]);
        ws.validate().unwrap();

        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
            .project(["test"]);
        let ans = eval_in_all_worlds(&ws, &q).unwrap();
        let conf = ans.tuple_confidence("result");
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0[0], Value::str("ultrasound"));
        assert!((conf[0].1 - 0.4).abs() < 1e-12);
        // The merged answer world-set has 2 distinct worlds: {ultrasound} and {}.
        assert_eq!(ans.merged().len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let ws = WorldSet::certain(World::new());
        let q = Query::table("missing");
        assert!(eval_in_all_worlds(&ws, &q).is_err());
    }

    #[test]
    fn compound_query() {
        let mut r = Relation::empty(Schema::new(vec![("a", ColumnType::Int)]));
        r.push_values(vec![Value::Int(1)]).unwrap();
        r.push_values(vec![Value::Int(2)]).unwrap();
        let mut s = Relation::empty(Schema::new(vec![("b", ColumnType::Int)]));
        s.push_values(vec![Value::Int(2)]).unwrap();
        let mut w = World::new();
        w.put("r", r);
        w.put("s", s);

        let q = Query::table("r").join(Query::table("s"), Expr::col("a").eq(Expr::col("b")));
        let out = eval_in_world(&q, &w).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows()[0].values(), &[Value::Int(2), Value::Int(2)]);
    }
}
