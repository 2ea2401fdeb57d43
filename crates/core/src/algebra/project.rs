//! Projection on decompositions.
//!
//! Projection restricts the template; component columns of dropped fields
//! are garbage-collected by normalization (which is what removes the
//! Symptom component in the paper's example). Care is needed when a
//! *dropped* open field can be ⊥: its ⊥ encodes the tuple's deletion, so
//! the tuple's existence must keep observing it — we then merge those
//! components into a fresh existence column before dropping the field.

use maybms_relational::Result;

use crate::field::Field;
use crate::wsd::{Existence, TupleTemplate, Wsd};

use super::common::{
    alias_cells, exists_cell, inherit_exists, marker_positions, snapshot, Part, Reads,
};

/// π_cols(input) → out.
pub fn project_op(wsd: &mut Wsd, input: &str, cols: &[&str], out: &str) -> Result<()> {
    let input = snapshot(wsd, input)?;
    let out_schema = input.schema.project(cols)?;
    let keep_positions: Vec<usize> = cols
        .iter()
        .map(|c| input.schema.index_of(c))
        .collect::<Result<_>>()?;
    wsd.add_relation(out, out_schema)?;

    for t in &input.tuples {
        project_tuple(wsd, t, &keep_positions, out)?;
    }
    Ok(())
}

/// Projects a single template tuple onto `keep_positions`, emitting it into
/// `out`. Dropped open fields whose columns can be ⊥ carry deletion
/// markers: the new existence column reads them (and the old ∃ field).
fn project_tuple(
    wsd: &mut Wsd,
    t: &TupleTemplate,
    keep_positions: &[usize],
    out: &str,
) -> Result<()> {
    let new_tid = wsd.fresh_tid();
    let mut markers = marker_positions(wsd, t)?;
    markers.retain(|p| !keep_positions.contains(p));
    let exists = if markers.is_empty() {
        inherit_exists(wsd, t, new_tid)?
    } else {
        Reads::merge(wsd, &[Part::new(t, &markers, 0)])?
            .write_column(wsd, Field::exists(new_tid), |_| Ok(exists_cell(true)))?;
        Existence::Open
    };
    let cells = alias_cells(wsd, new_tid, t, keep_positions.iter().copied(), 0)?;
    wsd.push_template(out, TupleTemplate { tid: new_tid, cells: cells.into(), exists })
}

#[cfg(test)]
mod tests {
    use crate::algebra::Query;
    use crate::exec::eval;
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
        let out = eval(&q, &wsd).unwrap();
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
        let out = eval(&q, &wsd).unwrap();
        // r1's diagnosis+test component remains; r2 becomes fully certain
        assert_eq!(out.stats().components, 1);
        let lhs = out.to_worldset(1000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q).unwrap();
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
        let out = eval(&q, &wsd).unwrap();
        out.validate().unwrap();
        let lhs = out.to_worldset(1000).unwrap();
        let rhs =
            eval_in_all_worlds(&wsd.to_worldset(1000).unwrap(), &q).unwrap();
        assert!(lhs.equivalent(&rhs, 1e-9));
    }

    #[test]
    fn project_reorders_columns() {
        let wsd = medical_wsd();
        let q = Query::table("R").project(["test", "diagnosis"]);
        let out = eval(&q, &wsd).unwrap();
        assert_eq!(
            out.relation("result").unwrap().schema.names(),
            vec!["test", "diagnosis"]
        );
    }

    #[test]
    fn unknown_column_errors() {
        let wsd = medical_wsd();
        assert!(eval(&Query::table("R").project(["nope"]), &wsd).is_err());
    }
}
