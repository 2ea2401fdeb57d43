//! Renaming and qualification on decompositions: schema-only operations;
//! tuples alias their sources entirely.

use maybms_relational::Result;

use crate::field::Field;
use crate::wsd::{Existence, TupleTemplate, Wsd};

use super::common::{alias_cells, exists_loc, snapshot};

fn copy_tuples(wsd: &mut Wsd, tuples: &[TupleTemplate], out: &str) -> Result<()> {
    for t in tuples {
        let new_tid = wsd.fresh_tid();
        let identity: Vec<usize> = (0..t.cells.len()).collect();
        let cells = alias_cells(wsd, new_tid, t, &identity)?;
        let exists = match exists_loc(wsd, t)? {
            None => Existence::Always,
            Some(loc) => {
                wsd.alias_field(Field::exists(new_tid), loc);
                Existence::Open
            }
        };
        wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })?;
    }
    Ok(())
}

/// ρ_{from→to}(input) → out.
pub fn rename_op(wsd: &mut Wsd, input: &str, from: &str, to: &str, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    let renamed = input.schema.rename(from, to)?;
    wsd.add_relation(out, renamed)?;
    copy_tuples(wsd, &input.tuples, out)
}

/// Prefixes every column name with `prefix.` — used before self-joins.
pub fn qualify_op(wsd: &mut Wsd, input: &str, prefix: &str, out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    wsd.add_relation(out, input.schema.qualify(prefix))?;
    copy_tuples(wsd, &input.tuples, out)
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::examples::medical_wsd;
    use maybms_worldset::eval::eval_in_all_worlds;

    #[test]
    fn rename_changes_schema_only() {
        let wsd = medical_wsd();
        let q = Query::table("R").rename("diagnosis", "dx");
        let out = q.eval(&wsd).unwrap();
        assert!(out.relation("result").unwrap().schema.contains("dx"));
        let lhs = out.to_worldset(1000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn qualify_prefixes_all() {
        let wsd = medical_wsd();
        let q = Query::table("R").qualify("p");
        let out = q.eval(&wsd).unwrap();
        assert_eq!(
            out.relation("result").unwrap().schema.names(),
            vec!["p.diagnosis", "p.test", "p.symptom"]
        );
    }

    #[test]
    fn rename_unknown_column_errors() {
        let wsd = medical_wsd();
        assert!(Query::table("R").rename("zz", "a").eval(&wsd).is_err());
    }
}
