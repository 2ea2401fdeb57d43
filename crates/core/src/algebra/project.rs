//! Projection on decompositions.
//!
//! Projection restricts the template; component columns of dropped fields
//! are garbage-collected by normalization (which is what removes the
//! Symptom component in the paper's example). Care is needed when a
//! *dropped* open field can be ⊥: its ⊥ encodes the tuple's deletion, so
//! the tuple's existence must keep observing it — we then merge those
//! components into a fresh existence column before dropping the field.

use maybms_relational::Result;

use crate::cell::Cell;
use crate::field::Field;
use crate::wsd::{Existence, TupleTemplate, Wsd};

use super::common::{
    add_exists_column, alias_cells, dead_in_row, exists_loc, open_fields_at, snapshot, TupleInfo,
};

/// π_cols(input) → out.
pub fn project_op(wsd: &mut Wsd, input: &str, cols: &[&str], out: &str) -> Result<()> {
    let (schema, tuples) = snapshot(wsd, input)?;
    let out_schema = schema.project(cols)?;
    let keep_positions: Vec<usize> = cols
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<_>>()?;
    wsd.add_relation(out, out_schema)?;

    for t in &tuples {
        project_tuple(wsd, t, &keep_positions, out)?;
    }
    Ok(())
}

/// Projects a single template tuple onto `keep_positions`, emitting it into
/// `out`. Handles the ⊥-capable dropped-field case by merging the marker
/// components into a fresh existence column.
fn project_tuple(
    wsd: &mut Wsd,
    t: &TupleInfo,
    keep_positions: &[usize],
    out: &str,
) -> Result<()> {
    let new_tid = wsd.fresh_tid();

    // Dropped open fields whose columns can be ⊥ carry deletion
    // markers; their components must feed the new existence field.
    let dropped: Vec<usize> = (0..t.cells.len())
        .filter(|p| !keep_positions.contains(p))
        .collect();
    let dropped_open = open_fields_at(wsd, t, &dropped)?;
    let mut marker_comps: Vec<usize> = Vec::new();
    for &(_, (c, col)) in &dropped_open {
        let comp = wsd.component(c).expect("mapped component"); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
        if comp.column_has_bottom(col) {
            marker_comps.push(c);
        }
    }

    if marker_comps.is_empty() {
        // Fast path: existence is simply inherited.
        let exists = match exists_loc(wsd, t)? {
            None => Existence::Always,
            Some(loc) => {
                wsd.alias_field(Field::exists(new_tid), loc);
                Existence::Open
            }
        };
        let cells = alias_cells(wsd, new_tid, t, keep_positions)?;
        wsd.push_template(out, TupleTemplate { tid: new_tid, cells, exists })?;
        return Ok(());
    }

    // Slow path: conjoin the ⊥-capable dropped components (and the old
    // existence field) into a fresh existence column.
    if let Some((c, _)) = exists_loc(wsd, t)? {
        marker_comps.push(c);
    }
    let merged = wsd.merge_components(&marker_comps)?;
    let dropped_now = open_fields_at(wsd, t, &dropped)?;
    let mut watch: Vec<usize> = dropped_now
        .iter()
        .filter(|&&(_, (c, _))| c == merged)
        .map(|&(_, (_, col))| col)
        .collect();
    if let Some((c, col)) = exists_loc(wsd, t)? {
        debug_assert_eq!(c, merged);
        watch.push(col);
    }
    add_exists_column(wsd, merged, new_tid, |row| {
        if dead_in_row(row, &watch) {
            Cell::Bottom
        } else {
            Cell::Val(maybms_relational::Value::Bool(true))
        }
    })?;
    let cells = alias_cells(wsd, new_tid, t, keep_positions)?;
    wsd.push_template(
        out,
        TupleTemplate { tid: new_tid, cells, exists: Existence::Open },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::examples::medical_wsd;
    use maybms_relational::{Expr, Value};
    use maybms_worldset::eval::eval_in_all_worlds;

    /// The paper's §2 pipeline: after selecting pregnancy and projecting
    /// onto Test, the result is the WSD `{(ultrasound, 0.4), (⊥, 0.6)}` —
    /// two worlds, one containing ultrasound, one empty.
    #[test]
    fn paper_projection_result() {
        let wsd = medical_wsd();
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
            .project(["test"]);
        let out = q.eval(&wsd).unwrap();
        out.validate().unwrap();

        let ws = out.to_worldset(1000).unwrap();
        let merged = ws.merged();
        assert_eq!(merged.len(), 2, "ultrasound-world and empty world");
        // stats: a single 2-row component remains after normalization
        let stats = out.stats();
        assert_eq!(stats.components, 1);
        assert_eq!(stats.max_component_rows, 2);
        // P(ultrasound) = 0.4
        let conf = out.tuple_confidence("result").unwrap();
        assert_eq!(conf.len(), 1);
        assert_eq!(conf[0].0[0], Value::str("ultrasound"));
        assert!((conf[0].1 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn projection_drops_unused_component() {
        let wsd = medical_wsd();
        // projecting away symptom should drop the symptom component
        let q = Query::table("R").project(["diagnosis", "test"]);
        let out = q.eval(&wsd).unwrap();
        // r1's diagnosis+test component remains; r2 becomes fully certain
        assert_eq!(out.stats().components, 1);
        let lhs = out.to_worldset(1000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn projection_after_selection_keeps_deletion_markers() {
        let wsd = medical_wsd();
        // Select on symptom (component 2), then project symptom away.
        // The deletion marker must survive through the existence field.
        let q = Query::table("R")
            .select(Expr::col("symptom").eq(Expr::lit("fatigue")))
            .project(["diagnosis"]);
        let out = q.eval(&wsd).unwrap();
        out.validate().unwrap();
        let lhs = out.to_worldset(1000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q.to_world_query()).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn project_reorders_columns() {
        let wsd = medical_wsd();
        let q = Query::table("R").project(["test", "diagnosis"]);
        let out = q.eval(&wsd).unwrap();
        assert_eq!(
            out.relation("result").unwrap().schema.names(),
            vec!["test", "diagnosis"]
        );
    }

    #[test]
    fn unknown_column_errors() {
        let wsd = medical_wsd();
        assert!(Query::table("R").project(["nope"]).eval(&wsd).is_err());
    }
}
