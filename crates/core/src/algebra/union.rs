//! Union on decompositions: the templates are concatenated (schemas must be
//! union-compatible); all fields alias their sources, so correlations
//! between the two sides (e.g. both derived from the same base relation)
//! are preserved.

use maybms_relational::Result;

use crate::wsd::Wsd;

use super::common::{emit_passthrough, snapshot};

/// input_l ∪ input_r → out (set semantics at the world level).
pub fn union_op(wsd: &mut Wsd, left: &str, right: &str, out: &str) -> Result<()> {
    let (l, r) = (snapshot(wsd, left)?, snapshot(wsd, right)?);
    l.schema.union_compatible(&r.schema)?;
    wsd.add_relation(out, l.schema.clone())?;
    l.tuples.iter().chain(&r.tuples).try_for_each(|t| emit_passthrough(wsd, t, out))
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::eval;
    use crate::wsd::Wsd;
    use maybms_relational::{ColumnType, Expr, Schema, Value};
    use maybms_worldset::eval::eval_in_all_worlds;
    use maybms_worldset::OrSetCell;

    fn wsd() -> Wsd {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_orset(
            "r",
            vec![OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap()],
        )
        .unwrap();
        w.push_certain("r", vec![Value::Int(3)]).unwrap();
        w
    }

    #[test]
    fn union_of_selections_matches_oracle() {
        let w = wsd();
        let q = Query::table("r")
            .select(Expr::col("a").eq(Expr::lit(1i64)))
            .union(Query::table("r").select(Expr::col("a").ge(Expr::lit(2i64))));
        let lhs = eval(&q, &w).unwrap().to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&w.to_worldset(1000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn union_with_self_keeps_correlation() {
        let w = wsd();
        let q = Query::table("r").union(Query::table("r"));
        let lhs = eval(&q, &w).unwrap().to_worldset(1000).unwrap();
        let rhs = eval_in_all_worlds(&w.to_worldset(1000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn incompatible_schemas_error() {
        let mut w = wsd();
        w.add_relation("s", Schema::new(vec![("b", ColumnType::Str)])).unwrap();
        let q = Query::table("r").union(Query::table("s"));
        assert!(eval(&q, &w).is_err());
    }
}
