//! Data cleaning: enforcing integrity constraints on world-sets.
//!
//! "We cleaned the world-set from inconsistencies by enforcing real-life
//! integrity constraints." (paper §1, experiment part 2)
//!
//! Cleaning removes every world violating a constraint and renormalizes the
//! probabilities of the remainder (conditioning on consistency). On a
//! decomposition this is a chase: for each potential violation, the
//! components it spans are merged and the violating *rows* of the merged
//! component are deleted; per-component renormalization is exact because
//! components are independent.

use maybms_relational::{Error, Expr, Result, Tuple, Value};

use crate::normalize;
use crate::wsd::{TupleTemplate, Wsd};

use crate::algebra::common::{
    bind_pred, bucket_by_possible_values, marker_positions, possible_values_of, settled, snapshot,
    values_intersect, varies, Part, Reads, Row,
};

/// An integrity constraint.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// Every existing tuple of `rel` must satisfy `pred` in every world
    /// (e.g. "AGE < 15 implies MARST = 'single'" as `¬(age<15) ∨ marst=…`).
    TupleCheck { rel: String, pred: Expr },
    /// Functional dependency `lhs → rhs` on `rel`.
    Fd { rel: String, lhs: Vec<String>, rhs: Vec<String> },
    /// Key constraint: `cols` functionally determine all other columns.
    Key { rel: String, cols: Vec<String> },
}

impl Constraint {
    pub fn tuple_check(rel: &str, pred: Expr) -> Constraint {
        Constraint::TupleCheck { rel: rel.to_string(), pred }
    }
    pub fn fd(rel: &str, lhs: &[&str], rhs: &[&str]) -> Constraint {
        Constraint::Fd {
            rel: rel.to_string(),
            lhs: lhs.iter().map(|s| s.to_string()).collect(),
            rhs: rhs.iter().map(|s| s.to_string()).collect(),
        }
    }
    pub fn key(rel: &str, cols: &[&str]) -> Constraint {
        Constraint::Key {
            rel: rel.to_string(),
            cols: cols.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// World-level consistency check — the oracle the chase must match.
    pub fn holds_in(&self, world: &maybms_worldset::World) -> Result<bool> {
        match self {
            Constraint::TupleCheck { rel, pred } => {
                let Some(r) = world.get(rel) else { return Ok(true) };
                let bound = pred.bind(r.schema())?;
                for t in r.iter() {
                    if !bound.eval_predicate(t)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Constraint::Fd { rel, lhs, rhs } => {
                let Some(r) = world.get(rel) else { return Ok(true) };
                let li: Vec<usize> = lhs
                    .iter()
                    .map(|c| r.schema().index_of(c))
                    .collect::<Result<_>>()?;
                let ri: Vec<usize> = rhs
                    .iter()
                    .map(|c| r.schema().index_of(c))
                    .collect::<Result<_>>()?;
                let rows = r.canonical();
                for (i, a) in rows.rows().iter().enumerate() {
                    for b in rows.rows().iter().skip(i + 1) {
                        let lhs_eq = li.iter().all(|&k| a[k] == b[k]);
                        let rhs_eq = ri.iter().all(|&k| a[k] == b[k]);
                        if lhs_eq && !rhs_eq {
                            return Ok(false);
                        }
                    }
                }
                Ok(true)
            }
            Constraint::Key { rel, cols } => {
                let desugared = desugar_key(rel, cols, world.get(rel).map(|r| r.schema()))?;
                match desugared {
                    Some(fd) => fd.holds_in(world),
                    None => Ok(true),
                }
            }
        }
    }
}

fn desugar_key(
    rel: &str,
    cols: &[String],
    schema: Option<&maybms_relational::Schema>,
) -> Result<Option<Constraint>> {
    let Some(schema) = schema else { return Ok(None) };
    let rhs: Vec<&str> = schema
        .names()
        .into_iter()
        .filter(|n| !cols.iter().any(|c| c == n))
        .collect();
    if rhs.is_empty() {
        return Ok(None); // key over all columns is vacuous under set semantics
    }
    let lhs: Vec<&str> = cols.iter().map(String::as_str).collect();
    Ok(Some(Constraint::fd(rel, &lhs, &rhs)))
}

/// Statistics of a cleaning run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CleaningReport {
    /// Merged-component rows deleted (violating world groups).
    pub deleted_rows: usize,
    /// Component merges performed by the chase.
    pub merges: usize,
    /// Probability mass of the removed (inconsistent) worlds.
    pub removed_probability: f64,
    /// Tuple pairs / tuples examined.
    pub checks: usize,
}

/// Enforces the constraints on the decomposition. Fails with an error if
/// cleaning would remove *all* worlds (the constraints are unsatisfiable on
/// this world-set). Normalizes afterwards.
pub fn clean(wsd: &mut Wsd, constraints: &[Constraint]) -> Result<CleaningReport> {
    let mut report = CleaningReport::default();
    let mut kept_fraction = 1.0f64;
    for c in constraints {
        match c {
            Constraint::TupleCheck { rel, pred } => {
                enforce_tuple_check(wsd, rel, pred, &mut report, &mut kept_fraction)?
            }
            Constraint::Fd { rel, lhs, rhs } => {
                enforce_fd(wsd, rel, lhs, rhs, &mut report, &mut kept_fraction)?
            }
            Constraint::Key { rel, cols } => {
                let schema = wsd.relation(rel)?.schema.clone();
                if let Some(Constraint::Fd { rel, lhs, rhs }) =
                    desugar_key(rel, cols, Some(&schema))?
                {
                    enforce_fd(wsd, &rel, &lhs, &rhs, &mut report, &mut kept_fraction)?;
                }
            }
        }
    }
    report.removed_probability = 1.0 - kept_fraction;
    normalize::normalize(wsd);
    Ok(report)
}

/// The positions a check on `t` reads: `positions`, plus the deletion
/// markers that decide, together with the ∃ field, where `t` exists.
fn check_positions(wsd: &Wsd, t: &TupleTemplate, positions: &[usize]) -> Result<Vec<usize>> {
    let mut out = positions.to_vec();
    out.extend(marker_positions(wsd, t)?.into_iter().filter(|p| !positions.contains(p)));
    Ok(out)
}

/// Deletes the rows of the merged component in which the reading tuples
/// exist and `violates` holds, renormalizing. Fails if everything is
/// deleted.
fn delete_rows(
    wsd: &mut Wsd,
    mut reads: Reads,
    violates: impl FnMut(&Row<'_>) -> Result<bool>,
    report: &mut CleaningReport,
    kept_fraction: &mut f64,
) -> Result<()> {
    report.merges += reads.merges();
    let (deleted, removed_mass) = reads.delete_rows(wsd, violates)?;
    let c = reads.component();
    let comp = wsd
        .component_mut(c)
        .ok_or_else(|| Error::InvalidExpr(format!("dead component {c}")))?;
    if comp.num_rows() == 0 {
        return Err(Error::InvalidExpr(
            "cleaning removed all worlds: constraints unsatisfiable".into(),
        ));
    }
    if deleted > 0 {
        report.deleted_rows += deleted;
        *kept_fraction *= 1.0 - removed_mass;
        comp.renormalize();
    }
    Ok(())
}

fn enforce_tuple_check(
    wsd: &mut Wsd,
    rel: &str,
    pred: &Expr,
    report: &mut CleaningReport,
    kept_fraction: &mut f64,
) -> Result<()> {
    let input = snapshot(wsd, rel)?;
    let (bound, positions) = bind_pred(pred, &input.schema)?;

    for t in &input.tuples {
        report.checks += 1;
        let holds = settled(wsd, &[Part::new(t, &positions, 0)], |row| bound.eval_predicate(row))?;
        if holds == Some(true) {
            continue; // satisfied wherever t exists
        }
        let reads_at = check_positions(wsd, t, &positions)?;
        let part = [Part::new(t, &reads_at, 0)];
        if holds == Some(false) && !varies(&part) {
            return Err(Error::InvalidExpr(format!(
                "tuple {} of {rel} violates a check in every world",
                t.tid
            )));
        }
        // the kernel alone knows where a ⊥-marked tuple exists
        let reads = Reads::merge(wsd, &part)?;
        let violates = |row: &Row<'_>| Ok(!bound.eval_predicate(row.vals)?);
        delete_rows(wsd, reads, violates, report, kept_fraction)?;
    }
    Ok(())
}

fn enforce_fd(
    wsd: &mut Wsd,
    rel: &str,
    lhs: &[String],
    rhs: &[String],
    report: &mut CleaningReport,
    kept_fraction: &mut f64,
) -> Result<()> {
    let input = snapshot(wsd, rel)?;
    let (schema, tuples) = (&input.schema, &input.tuples);
    let li: Vec<usize> = lhs
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<_>>()?;
    let ri: Vec<usize> = rhs
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<Result<_>>()?;
    let all_pos: Vec<usize> = li.iter().chain(ri.iter()).copied().collect();
    let arity = schema.len();
    // on a row holding t at 0 and u at `arity`: agree on lhs, differ on rhs
    let violated = |vals: &Tuple| {
        let same = |&p: &usize| vals[p] == vals[arity + p];
        li.iter().all(same) && !ri.iter().all(same)
    };

    // Pair pruning at scale, sharing the equi-join's bucket index: every
    // tuple's possible values at the constrained positions are derived
    // ONCE (component columns read through the field map), then tuples
    // are hash-partitioned by the possible values of the first lhs
    // column. Only pairs sharing a bucket can agree on the lhs, so
    // candidate generation is O(|R| + candidates), not O(|R|²), and the
    // per-pair prunes below reuse the precomputed value sets instead of
    // re-deriving them. The precomputed sets can only be supersets of
    // the live ones after earlier deletions, so pruning stays sound (the
    // kernel re-reads live rows).
    let mut poss: Vec<Vec<Vec<Value>>> = Vec::with_capacity(tuples.len());
    for t in tuples {
        let per: Vec<Vec<Value>> = all_pos
            .iter()
            .map(|&p| possible_values_of(wsd, t, p))
            .collect::<Result<_>>()?;
        poss.push(per);
    }
    let nl = li.len();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    if nl == 0 {
        // degenerate FD with empty lhs: every pair shares the (empty) key
        for i in 0..tuples.len() {
            for j in (i + 1)..tuples.len() {
                pairs.push((i, j));
            }
        }
    } else {
        let buckets = bucket_by_possible_values(tuples.len(), |i| &poss[i][0]);
        let mut cand: Vec<usize> = Vec::new();
        for (i, p) in poss.iter().enumerate() {
            cand.clear();
            for v in &p[0] {
                if v.is_null() {
                    continue;
                }
                if let Some(js) = buckets.get(v) {
                    cand.extend(js.iter().copied().filter(|&j| j > i));
                }
            }
            cand.sort_unstable();
            cand.dedup();
            pairs.extend(cand.iter().map(|&j| (i, j)));
        }
    }

    for (i, j) in pairs {
        let (t, u) = (&tuples[i], &tuples[j]);
        report.checks += 1;
        // prune: lhs must be able to agree
        let can_agree = (0..nl).all(|k| values_intersect(&poss[i][k], &poss[j][k]));
        if !can_agree {
            continue;
        }
        // prune: rhs must be able to differ
        let can_differ = (nl..all_pos.len()).any(|k| {
            let (tv, uv) = (&poss[i][k], &poss[j][k]);
            tv.len() > 1 || uv.len() > 1 || tv.first() != uv.first()
        });
        if !can_differ {
            continue;
        }

        let pair = [Part::new(t, &all_pos, 0), Part::new(u, &all_pos, arity)];
        if !varies(&pair) {
            // both certain and always present: a violation is in every world
            if settled(wsd, &pair, |row| Ok(violated(row)))? == Some(true) {
                return Err(Error::InvalidExpr(format!(
                    "tuples {} and {} of {rel} violate the FD in every world",
                    t.tid, u.tid
                )));
            }
            continue;
        }
        let (t_at, u_at) = (check_positions(wsd, t, &all_pos)?, check_positions(wsd, u, &all_pos)?);
        let reads = Reads::merge(wsd, &[Part::new(t, &t_at, 0), Part::new(u, &u_at, arity)])?;
        delete_rows(wsd, reads, |row| Ok(violated(row.vals)), report, kept_fraction)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_relational::{ColumnType, Schema};
    use maybms_worldset::OrSetCell;

    fn check_against_oracle(wsd: &Wsd, constraints: &[Constraint]) {
        let before = wsd.to_worldset(1_000_000).unwrap();
        let mut cleaned = wsd.clone();
        let report = clean(&mut cleaned, constraints).unwrap();
        cleaned.validate().unwrap();
        let lhs = cleaned.to_worldset(1_000_000).unwrap();
        let rhs = before
            .filter(|w| {
                for c in constraints {
                    if !c.holds_in(w)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            })
            .unwrap();
        assert!(
            lhs.equivalent(&rhs, 1e-9),
            "chase must equal world-level filtering (report {report:?})"
        );
    }

    fn person_wsd() -> Wsd {
        let mut w = Wsd::new();
        w.add_relation(
            "p",
            Schema::new(vec![
                ("ssn", ColumnType::Int),
                ("name", ColumnType::Str),
                ("age", ColumnType::Int),
            ]),
        )
        .unwrap();
        // ssn uncertain for the first person
        w.push_orset(
            "p",
            vec![
                OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap(),
                OrSetCell::certain("ann"),
                OrSetCell::certain(30i64),
            ],
        )
        .unwrap();
        w.push_certain("p", vec![Value::Int(2), Value::str("bob"), Value::Int(40)])
            .unwrap();
        w
    }

    #[test]
    fn key_constraint_removes_colliding_worlds() {
        let w = person_wsd();
        let cons = vec![Constraint::key("p", &["ssn"])];
        check_against_oracle(&w, &cons);
        let mut cleaned = w.clone();
        let report = clean(&mut cleaned, &cons).unwrap();
        // the ssn=2 alternative for ann collides with bob and is removed
        assert!(report.deleted_rows >= 1);
        assert!((report.removed_probability - 0.5).abs() < 1e-9);
        // after cleaning, ann's ssn is certainly 1
        let conf = cleaned.tuple_confidence("p").unwrap();
        assert!(conf
            .iter()
            .all(|(t, _)| !(t[0] == Value::Int(2) && t[1] == Value::str("ann"))));
    }

    #[test]
    fn tuple_check_conditions_distribution() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("age", ColumnType::Int)])).unwrap();
        w.push_orset(
            "r",
            vec![OrSetCell::weighted(vec![
                (Value::Int(10), 0.2),
                (Value::Int(200), 0.3),
                (Value::Int(50), 0.5),
            ])
            .unwrap()],
        )
        .unwrap();
        let cons = vec![Constraint::tuple_check(
            "r",
            Expr::col("age").le(Expr::lit(150i64)),
        )];
        check_against_oracle(&w, &cons);
        let mut cleaned = w.clone();
        let report = clean(&mut cleaned, &cons).unwrap();
        assert!((report.removed_probability - 0.3).abs() < 1e-9);
        // renormalized: P(age=10) = 0.2/0.7
        let conf = cleaned.tuple_confidence("r").unwrap();
        let ten = conf.iter().find(|(t, _)| t[0] == Value::Int(10)).unwrap();
        assert!((ten.1 - 0.2 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn fd_between_uncertain_tuples() {
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
        w.push_orset(
            "r",
            vec![
                OrSetCell::certain(1i64),
                OrSetCell::weighted(vec![(Value::Int(10), 0.5), (Value::Int(20), 0.5)]).unwrap(),
            ],
        )
        .unwrap();
        w.push_orset(
            "r",
            vec![
                OrSetCell::certain(1i64),
                OrSetCell::weighted(vec![(Value::Int(10), 0.3), (Value::Int(30), 0.7)]).unwrap(),
            ],
        )
        .unwrap();
        let cons = vec![Constraint::fd("r", &["a"], &["b"])];
        check_against_oracle(&w, &cons);
    }

    #[test]
    fn unsatisfiable_constraints_error() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        w.push_certain("r", vec![Value::Int(500)]).unwrap();
        let cons = vec![Constraint::tuple_check(
            "r",
            Expr::col("a").lt(Expr::lit(100i64)),
        )];
        assert!(clean(&mut w, &cons).is_err());
    }

    #[test]
    fn consistent_data_is_untouched() {
        let w = person_wsd();
        let cons = vec![Constraint::tuple_check(
            "p",
            Expr::col("age").lt(Expr::lit(150i64)),
        )];
        let mut cleaned = w.clone();
        let report = clean(&mut cleaned, &cons).unwrap();
        assert_eq!(report.deleted_rows, 0);
        assert!((report.removed_probability).abs() < 1e-12);
        assert!(w
            .to_worldset(1000)
            .unwrap()
            .equivalent(&cleaned.to_worldset(1000).unwrap(), 1e-9));
    }

    #[test]
    fn multiple_constraints_compose() {
        let w = person_wsd();
        let cons = vec![
            Constraint::key("p", &["ssn"]),
            Constraint::tuple_check("p", Expr::col("age").lt(Expr::lit(100i64))),
        ];
        check_against_oracle(&w, &cons);
    }
}
