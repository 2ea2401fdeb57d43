//! Renaming and qualification on decompositions: schema-only operations;
//! tuples alias their sources entirely.

use maybms_relational::Result;

use crate::wsd::Wsd;

use super::common::{emit_passthrough, snapshot};

/// ρ_{from→to}(input) → out.
pub fn rename_op(wsd: &mut Wsd, input: &str, from: &str, to: &str, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    let renamed = input.schema.rename(from, to)?;
    wsd.add_relation(out, renamed)?;
    input.tuples.iter().try_for_each(|t| emit_passthrough(wsd, t, out))
}

/// Prefixes every column name with `prefix.` — used before self-joins.
pub fn qualify_op(wsd: &mut Wsd, input: &str, prefix: &str, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    wsd.add_relation(out, input.schema.qualify(prefix))?;
    input.tuples.iter().try_for_each(|t| emit_passthrough(wsd, t, out))
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::eval;
    use crate::examples::medical_wsd;
    use maybms_worldset::eval::eval_in_all_worlds;

    #[test]
    fn rename_changes_schema_only() {
        let wsd = medical_wsd();
        let q = Query::table("R").rename("diagnosis", "dx");
        let out = eval(&q, &wsd).unwrap();
        assert!(out.relation("result").unwrap().schema.contains("dx"));
        let lhs = out.to_worldset(1000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn qualify_prefixes_all() {
        let wsd = medical_wsd();
        let q = Query::table("R").qualify("p");
        let out = eval(&q, &wsd).unwrap();
        assert_eq!(
            out.relation("result").unwrap().schema.names(),
            vec!["p.diagnosis", "p.test", "p.symptom"]
        );
    }

    #[test]
    fn rename_unknown_column_errors() {
        let wsd = medical_wsd();
        assert!(eval(&Query::table("R").rename("zz", "a"), &wsd).is_err());
    }
}
