//! The paper's running example, constructed verbatim.
//!
//! Section 2 of the paper illustrates WSDs "using a medical scenario
//! describing diagnoses, tests, and symptoms": a relation `R(diagnosis,
//! test, symptom)` with two patient-record tuples r1 and r2, decomposed
//! into five components. The represented world-set has four worlds; the
//! record (hypothyroidism, TSH, weight gain) + (obesity, BMI, weight gain)
//! has probability 0.6 · 0.7 · 1 · 1 · 1 = 0.42.

use maybms_relational::{ColumnType, Schema, Value};

use crate::cell::Cell;
use crate::component::{CompRow, Component};
use crate::field::Field;
use crate::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};

/// The schema of the medical relation `R`.
pub fn medical_schema() -> Schema {
    Schema::new(vec![
        ("diagnosis", ColumnType::Str),
        ("test", ColumnType::Str),
        ("symptom", ColumnType::Str),
    ])
}

/// Builds the §2 medical WSD exactly as printed in the paper:
///
/// ```text
/// r1.Diagnosis    r1.Test    p      r1.Symptom   p     r2.Diagnosis p
/// pregnancy       ultrasound 0.4  × weight gain  0.7 × obesity      1 ×
/// hypothyroidism  TSH        0.6    fatigue      0.3
///
/// r2.Test p     r2.Symptom  p
/// BMI     1   × weight gain 1
/// ```
pub fn medical_wsd() -> Wsd {
    let mut w = Wsd::new();
    w.add_relation("R", medical_schema()).expect("fresh wsd"); // maybms-lint: allow(no-panic-in-prod) -- demo builder with a statically known schema; failure is a bug in the example itself

    let v = |s: &str| Cell::Val(Value::str(s));

    let r1 = w.fresh_tid();
    // component 1: {r1.Diagnosis, r1.Test}
    w.add_component(Component::new(
        vec![Field::attr(r1, 0), Field::attr(r1, 1)],
        vec![
            CompRow::new(vec![v("pregnancy"), v("ultrasound")], 0.4),
            CompRow::new(vec![v("hypothyroidism"), v("TSH")], 0.6),
        ],
    ));
    // component 2: {r1.Symptom}
    w.add_component(Component::singleton(
        Field::attr(r1, 2),
        vec![(v("weight gain"), 0.7), (v("fatigue"), 0.3)],
    ));
    w.push_template(
        "R",
        TupleTemplate {
            tid: r1,
            cells: vec![TemplateCell::Open, TemplateCell::Open, TemplateCell::Open].into(),
            exists: Existence::Always,
        },
    )
    .expect("schema matches"); // maybms-lint: allow(no-panic-in-prod) -- demo builder with a statically known schema; failure is a bug in the example itself

    let r2 = w.fresh_tid();
    // components 3–5: {r2.Diagnosis}, {r2.Test}, {r2.Symptom}, each certain
    w.add_component(Component::singleton(Field::attr(r2, 0), vec![(v("obesity"), 1.0)]));
    w.add_component(Component::singleton(Field::attr(r2, 1), vec![(v("BMI"), 1.0)]));
    w.add_component(Component::singleton(
        Field::attr(r2, 2),
        vec![(v("weight gain"), 1.0)],
    ));
    w.push_template(
        "R",
        TupleTemplate {
            tid: r2,
            cells: vec![TemplateCell::Open, TemplateCell::Open, TemplateCell::Open].into(),
            exists: Existence::Always,
        },
    )
    .expect("schema matches"); // maybms-lint: allow(no-panic-in-prod) -- demo builder with a statically known schema; failure is a bug in the example itself

    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medical_wsd_is_valid_with_five_components() {
        let w = medical_wsd();
        w.validate().unwrap();
        assert_eq!(w.num_components(), 5);
        // 2 * 2 * 1 * 1 * 1 = 4 worlds, as in the paper
        assert_eq!(w.world_count().to_u64(), Some(4));
    }

    #[test]
    fn world_probabilities_match_paper() {
        let w = medical_wsd();
        let ws = w.to_worldset(10).unwrap();
        ws.validate().unwrap();
        assert_eq!(ws.len(), 4);
        // the record described in the paper: hypothyroidism/TSH with weight
        // gain (plus the certain obesity record) has probability 0.42
        let found = ws.worlds().iter().any(|(world, p)| {
            let r = world.get("R").unwrap();
            let has_hypo = r.rows().iter().any(|t| {
                t[0] == Value::str("hypothyroidism")
                    && t[1] == Value::str("TSH")
                    && t[2] == Value::str("weight gain")
            });
            let has_obesity = r.rows().iter().any(|t| t[0] == Value::str("obesity"));
            has_hypo && has_obesity && (p - 0.42).abs() < 1e-12
        });
        assert!(found, "paper's 0.42 world must be represented");
    }

    #[test]
    fn every_world_contains_the_certain_record() {
        let w = medical_wsd();
        let ws = w.to_worldset(10).unwrap();
        for (world, _) in ws.worlds() {
            let r = world.get("R").unwrap();
            assert!(r.rows().iter().any(|t| {
                t[0] == Value::str("obesity")
                    && t[1] == Value::str("BMI")
                    && t[2] == Value::str("weight gain")
            }));
        }
    }
}
