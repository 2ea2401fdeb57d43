//! Relation statistics and cardinality estimation for cost-based planning.
//!
//! [`WsdStats`] is the collector: it computes per-relation statistics
//! ([`RelStats`] — row counts and per-column distinct counts, including
//! every possible value of open fields) on demand and caches them.
//! An entry is keyed on the shared parts of the [`Wsd`] it read: the
//! relation's template and, for each component slot its open fields
//! reach, the component and the slot's reverse-index row. Every write
//! moves the part it changes to a new allocation (see the "Sharing"
//! section of [`crate::wsd`]), so an entry is reused exactly when every
//! part it read is still the same allocation. Statistics survive writes
//! to other relations and to components their relation does not reach.
//!
//! On top of the raw statistics sits the one estimator,
//! [`estimate_query`], which walks a [`Query`] tree and produces
//! row-count estimates from textbook selectivity rules (`1/distinct` for
//! equalities, `1/3` for range predicates) and a cumulative cost in
//! abstract "rows touched" units. The SQL optimizer's join-order search
//! reads the rows; `EXPLAIN` prints both per node.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Weak};

use maybms_relational::{CmpOp, Expr, Result, Value};

use crate::algebra::Query;
use crate::component::Component;
use crate::exec::plan::join_key;
use crate::field::Field;
use crate::wsd::{Existence, RelTemplate, TemplateCell, Wsd};

/// Statistics of one column of a relation template.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    /// Column name (schema order is preserved in [`RelStats::cols`]).
    pub name: String,
    /// Distinct possible values across all tuples and worlds: certain
    /// values plus every possible value of open fields.
    pub distinct: usize,
    /// Whether any tuple has an open (world-dependent) cell here.
    pub has_open: bool,
}

/// Statistics of one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelStats {
    /// Template tuples — an upper bound on the per-world cardinality.
    pub rows: usize,
    /// Whether any tuple's existence or any cell is world-dependent
    /// (if so, the stats depend on component contents).
    pub has_open: bool,
    /// Per-column statistics, aligned with the schema.
    pub cols: Vec<ColStats>,
}

impl RelStats {
    /// Distinct count of the named column (`None` if absent).
    pub fn distinct_of(&self, col: &str) -> Option<usize> {
        self.cols.iter().find(|c| c.name == col).map(|c| c.distinct)
    }
}

/// A component slot a cached entry read: its index, its component and its
/// reverse-index row.
type SlotRead = (usize, Weak<Component>, Weak<[Vec<Field>]>);

/// A cached [`RelStats`] and the shared parts it was computed from. Each
/// part is held as a `Weak`, which keeps the allocation (so its address
/// is not reused) but neither its contents nor a share of them: a write
/// to a part moves it to a new allocation instead of copying it.
#[derive(Debug, Clone)]
struct CachedRel {
    template: Weak<RelTemplate>,
    /// The slots the relation's open fields reach; a field cannot move
    /// without leaving its slot's reverse-index row. `None` when an open
    /// field maps to no live component (a decomposition
    /// [`Wsd::validate`] rejects), so that the entry is never reused.
    slots: Option<Vec<SlotRead>>,
    stats: RelStats,
}

impl CachedRel {
    /// Whether every part this entry read is still the same allocation
    /// in `wsd`, whose template of the relation is `tpl`.
    fn is_current(&self, wsd: &Wsd, tpl: &Arc<RelTemplate>) -> bool {
        same(&self.template, tpl)
            && self.slots.as_ref().is_some_and(|slots| {
                slots.iter().all(|(i, comp, rev)| {
                    wsd.slots.get(*i).is_some_and(|s| {
                        s.comp.as_ref().is_some_and(|c| same(comp, c)) && same(rev, &s.rev)
                    })
                })
            })
    }
}

fn same<T: ?Sized>(w: &Weak<T>, a: &Arc<T>) -> bool {
    std::ptr::addr_eq(w.as_ptr(), Arc::as_ptr(a))
}

/// The statistics collector: a per-relation cache of [`RelStats`] keyed
/// by the shared parts of the [`Wsd`] each entry read. Cheap to clone
/// when empty; intended to live next to a session and persist across
/// queries.
#[derive(Debug, Clone, Default)]
pub struct WsdStats {
    cache: HashMap<String, CachedRel>,
    hits: u64,
    misses: u64,
}

impl WsdStats {
    /// An empty collector.
    pub fn new() -> WsdStats {
        WsdStats::default()
    }

    /// Statistics of `rel`, recomputed only if the relation's template,
    /// or a component slot its open fields reach, changed.
    pub fn rel(&mut self, wsd: &Wsd, rel: &str) -> Result<&RelStats> {
        let tpl = wsd.shared_relation(rel)?;
        let cached = match self.cache.entry(rel.to_string()) {
            Entry::Occupied(e) if e.get().is_current(wsd, tpl) => {
                self.hits += 1;
                e.into_mut()
            }
            e => {
                self.misses += 1;
                e.insert_entry(compute_rel_stats(wsd, tpl)).into_mut()
            }
        };
        Ok(&cached.stats)
    }

    /// `(cache hits, recomputations)` since construction — the
    /// incremental-maintenance observability hook.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

fn compute_rel_stats(wsd: &Wsd, tpl: &Arc<RelTemplate>) -> CachedRel {
    let ncols = tpl.schema.len();
    let mut sets: Vec<HashSet<Value>> = vec![HashSet::new(); ncols];
    let mut open: Vec<bool> = vec![false; ncols];
    let mut has_open = false;
    // Possible values of a component column are scanned once even when
    // many open fields alias the same column.
    let mut col_cache: HashMap<(usize, usize), Vec<Value>> = HashMap::new();
    let mut reached = Vec::new();
    let mut complete = true;
    for t in &tpl.tuples {
        if t.exists == Existence::Open {
            has_open = true;
        }
        for (i, cell) in t.cells.iter().enumerate() {
            match cell {
                TemplateCell::Certain(v) => {
                    sets[i].insert(v.clone());
                }
                TemplateCell::Open => {
                    open[i] = true;
                    has_open = true;
                    let Some(loc) = wsd.field_loc(Field::attr(t.tid, i as u32)) else {
                        complete = false;
                        continue;
                    };
                    let vals = col_cache.entry(loc).or_insert_with(|| {
                        reached.push(loc.0);
                        wsd.component(loc.0)
                            .map(|c| c.possible_values_col(loc.1))
                            .unwrap_or_default()
                    });
                    for v in vals.iter() {
                        sets[i].insert(v.clone());
                    }
                }
            }
        }
    }
    let cols = (0..ncols)
        .map(|i| ColStats {
            name: tpl.schema.column(i).name.clone(),
            distinct: sets[i].len(),
            has_open: open[i],
        })
        .collect();
    reached.sort_unstable();
    reached.dedup();
    // `None` as soon as one reached slot is dead
    let slots: Option<Vec<SlotRead>> = reached
        .into_iter()
        .map(|c| {
            let s = wsd.slots.get(c)?;
            Some((c, Arc::downgrade(s.comp.as_ref()?), Arc::downgrade(&s.rev)))
        })
        .collect();
    CachedRel {
        template: Arc::downgrade(tpl),
        slots: slots.filter(|_| complete),
        stats: RelStats { rows: tpl.tuples.len(), has_open, cols },
    }
}

// ---------------------------------------------------------------------
// Cardinality estimation
// ---------------------------------------------------------------------

/// A cardinality estimate of a plan node: expected rows, the cumulative
/// cost of computing them, and per-column distinct-count estimates
/// (keyed by output column name).
#[derive(Debug, Clone, Default)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost of the subtree rooted here, in rows
    /// touched: inputs scanned, hash tables built, pairs emitted — a
    /// nested loop pays the full pair product.
    pub cost: f64,
    /// Estimated distinct values per output column.
    pub distinct: HashMap<String, f64>,
}

impl Estimate {
    fn cap_distinct(mut self) -> Estimate {
        for d in self.distinct.values_mut() {
            *d = d.min(self.rows).max(if self.rows > 0.0 { 1.0 } else { 0.0 });
        }
        self
    }
}

/// Selectivity of `pred` against an input estimate: `1/distinct` for
/// equalities, `1/3` for ranges, textbook combinators for AND/OR/NOT.
pub fn selectivity(pred: &Expr, input: &Estimate) -> f64 {
    let s = match pred {
        Expr::Lit(Value::Bool(true)) => 1.0,
        Expr::Lit(Value::Bool(false)) => 0.0,
        Expr::And(a, b) => selectivity(a, input) * selectivity(b, input),
        Expr::Or(a, b) => {
            let (sa, sb) = (selectivity(a, input), selectivity(b, input));
            sa + sb - sa * sb
        }
        Expr::Not(e) => 1.0 - selectivity(e, input),
        Expr::Cmp(op, a, b) => cmp_selectivity(*op, a, b, input),
        Expr::InList(e, vals) => {
            if let Expr::Col(n) = e.as_ref() {
                let d = input.distinct.get(n).copied().unwrap_or(10.0).max(1.0);
                (vals.len() as f64 / d).min(1.0)
            } else {
                0.5
            }
        }
        Expr::IsNull(_) => 0.1,
        _ => 0.5,
    };
    s.clamp(0.0, 1.0)
}

fn cmp_selectivity(op: CmpOp, a: &Expr, b: &Expr, input: &Estimate) -> f64 {
    let dist = |e: &Expr| match e {
        Expr::Col(n) => input.distinct.get(n).copied(),
        _ => None,
    };
    match op {
        CmpOp::Eq => match (dist(a), dist(b)) {
            // col = col: the classic 1/max(d_a, d_b)
            (Some(da), Some(db)) => 1.0 / da.max(db).max(1.0),
            // col = literal (or expression): 1/d
            (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
            (None, None) => 0.1,
        },
        CmpOp::Ne => match (dist(a), dist(b)) {
            (Some(da), Some(db)) => 1.0 - 1.0 / da.max(db).max(1.0),
            (Some(d), None) | (None, Some(d)) => 1.0 - 1.0 / d.max(1.0),
            (None, None) => 0.9,
        },
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
    }
}

fn base_estimate(wsd: &Wsd, stats: &mut WsdStats, rel: &str) -> Result<Estimate> {
    let rs = stats.rel(wsd, rel)?;
    let distinct = rs
        .cols
        .iter()
        .map(|c| (c.name.clone(), c.distinct as f64))
        .collect();
    Ok(Estimate { rows: rs.rows as f64, cost: rs.rows as f64, distinct })
}

fn apply_filter(mut est: Estimate, pred: &Expr) -> Estimate {
    let sel = selectivity(pred, &est);
    est.rows *= sel;
    // An equality against a literal pins the column to one value.
    for c in pred.conjuncts() {
        if let Expr::Cmp(CmpOp::Eq, a, b) = c {
            match (a.as_ref(), b.as_ref()) {
                (Expr::Col(n), Expr::Lit(_)) | (Expr::Lit(_), Expr::Col(n)) => {
                    if let Some(d) = est.distinct.get_mut(n) {
                        *d = 1.0;
                    }
                }
                _ => {}
            }
        }
    }
    est.cap_distinct()
}

/// A join or product of `l` and `r`; `hashed` when the join
/// hash-partitions ([`join_key`]), which touches both inputs and the
/// output instead of every pair.
fn combine_join(l: Estimate, r: Estimate, pred: Option<&Expr>, hashed: bool) -> Estimate {
    let pairs = l.rows * r.rows;
    let (inputs, cost) = (l.rows + r.rows, l.cost + r.cost);
    let mut distinct = l.distinct;
    for (k, v) in r.distinct {
        distinct.entry(k).or_insert(v);
    }
    let mut est = Estimate { rows: pairs, cost, distinct };
    if let Some(p) = pred {
        let sel = selectivity(p, &est);
        est.rows *= sel;
    }
    est.cost += if hashed { inputs + est.rows } else { pairs };
    est.cap_distinct()
}

/// Estimates the rows and cumulative cost of a [`Query`] tree.
pub fn estimate_query(q: &Query, wsd: &Wsd, stats: &mut WsdStats) -> Result<Estimate> {
    Ok(match q {
        Query::Table(n) => base_estimate(wsd, stats, n)?,
        Query::Select(i, p) => {
            let child = estimate_query(i, wsd, stats)?;
            let cost = child.cost + child.rows;
            Estimate { cost, ..apply_filter(child, p) }
        }
        Query::Project(i, cols) => {
            let child = estimate_query(i, wsd, stats)?;
            let distinct = cols
                .iter()
                .filter_map(|c| child.distinct.get(c).map(|&d| (c.clone(), d)))
                .collect();
            Estimate { rows: child.rows, cost: child.cost + child.rows, distinct }
        }
        Query::Product(a, b) => combine_join(
            estimate_query(a, wsd, stats)?,
            estimate_query(b, wsd, stats)?,
            None,
            false,
        ),
        Query::Join(a, b, p) => combine_join(
            estimate_query(a, wsd, stats)?,
            estimate_query(b, wsd, stats)?,
            Some(p),
            join_key(a, b, p, wsd).is_some(),
        ),
        Query::Union(a, b) => {
            let (l, r) = (estimate_query(a, wsd, stats)?, estimate_query(b, wsd, stats)?);
            let rows = l.rows + r.rows;
            let mut distinct = l.distinct;
            for (k, v) in r.distinct {
                let e = distinct.entry(k).or_insert(0.0);
                *e += v;
            }
            Estimate { rows, cost: l.cost + r.cost + rows, distinct }.cap_distinct()
        }
        Query::Difference(a, b) => {
            let (l, r) = (estimate_query(a, wsd, stats)?, estimate_query(b, wsd, stats)?);
            let cost = l.cost + r.cost + l.rows + r.rows;
            Estimate { cost, ..l }
        }
        Query::Distinct(i) => {
            let child = estimate_query(i, wsd, stats)?;
            // Output rows are bounded by the product of column distincts.
            let bound: f64 = child
                .distinct
                .values()
                .fold(1.0f64, |acc, &d| (acc * d.max(1.0)).min(1e18));
            let (rows, cost) = (child.rows.min(bound), child.cost + child.rows);
            Estimate { rows, cost, distinct: child.distinct }.cap_distinct()
        }
        Query::Rename(i, _, _) => estimate_query(i, wsd, stats)?,
        Query::Qualify(i, p) => {
            let child = estimate_query(i, wsd, stats)?;
            let distinct = child
                .distinct
                .into_iter()
                .map(|(k, v)| (format!("{p}.{k}"), v))
                .collect();
            Estimate { distinct, ..child }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::field::Tid;
    use maybms_relational::{ColumnType, Schema};
    use maybms_worldset::OrSetCell;

    fn wsd_with(rows: &[(i64, &str)]) -> Wsd {
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Str)]),
        )
        .unwrap();
        for &(a, b) in rows {
            w.push_certain("r", vec![Value::Int(a), Value::str(b)]).unwrap();
        }
        w
    }

    #[test]
    fn exact_counts_on_certain_relations() {
        let w = wsd_with(&[(1, "x"), (1, "y"), (2, "x"), (3, "x")]);
        let mut s = WsdStats::new();
        let rs = s.rel(&w, "r").unwrap();
        assert_eq!(rs.rows, 4);
        assert_eq!(rs.distinct_of("a"), Some(3));
        assert_eq!(rs.distinct_of("b"), Some(2));
        assert!(!rs.has_open);
    }

    #[test]
    fn open_fields_count_all_possible_values() {
        let mut w = wsd_with(&[(1, "x")]);
        w.push_orset(
            "r",
            vec![
                OrSetCell::uniform(vec![Value::Int(7), Value::Int(8)]).unwrap(),
                OrSetCell::certain("x"),
            ],
        )
        .unwrap();
        let mut s = WsdStats::new();
        let rs = s.rel(&w, "r").unwrap();
        assert_eq!(rs.rows, 2);
        // {1} certain ∪ {7, 8} possible
        assert_eq!(rs.distinct_of("a"), Some(3));
        assert_eq!(rs.distinct_of("b"), Some(1));
        assert!(rs.has_open);
    }

    #[test]
    fn cache_invalidates_on_insert_delete_and_merge() {
        let mut w = wsd_with(&[(1, "x"), (2, "y")]);
        let mut s = WsdStats::new();
        assert_eq!(s.rel(&w, "r").unwrap().rows, 2);
        assert_eq!(s.counters(), (0, 1));

        // Cached while nothing changed.
        assert_eq!(s.rel(&w, "r").unwrap().rows, 2);
        assert_eq!(s.counters(), (1, 1));

        // Insert invalidates.
        w.push_certain("r", vec![Value::Int(9), Value::str("z")]).unwrap();
        assert_eq!(s.rel(&w, "r").unwrap().rows, 3);
        assert_eq!(s.counters(), (1, 2));
        assert_eq!(s.rel(&w, "r").unwrap().distinct_of("a"), Some(3));
        assert_eq!(s.counters(), (2, 2));

        // Component merges invalidate stats of open relations only: add
        // an open tuple, cache, then merge.
        w.push_orset(
            "r",
            vec![
                OrSetCell::uniform(vec![Value::Int(4), Value::Int(5)]).unwrap(),
                OrSetCell::uniform(vec![Value::str("p"), Value::str("q")]).unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(s.rel(&w, "r").unwrap().rows, 4);
        let live = w.live_components();
        w.merge_components(&live).unwrap();
        let (_, misses_before) = s.counters();
        let rs = s.rel(&w, "r").unwrap();
        assert_eq!(rs.distinct_of("a"), Some(5)); // {1,2,9} ∪ {4,5}
        let (_, misses_after) = s.counters();
        assert_eq!(misses_after, misses_before + 1, "merge must recompute");

        // So does a ⊥-write to a reached slot: 4 is no longer possible.
        let tid = w.relation("r").unwrap().tuples[3].tid;
        let (c, col) = w.field_loc(Field::attr(tid, 0)).unwrap();
        let comp = w.component_mut(c).unwrap();
        for row in 0..comp.num_rows() {
            if comp.cell(row, col) == &Cell::Val(Value::Int(4)) {
                comp.set_bottom(row, col);
            }
        }
        assert_eq!(s.rel(&w, "r").unwrap().distinct_of("a"), Some(4)); // {1,2,9} ∪ {5}
        assert_eq!(s.counters().1, misses_after + 1, "a ⊥-write must recompute");

        // ... an alias into a reached slot ...
        w.alias_field(Field::attr(Tid(1_000), 0), (c, col));
        let _ = s.rel(&w, "r").unwrap();
        assert_eq!(s.counters().1, misses_after + 2, "an alias must recompute");

        // ... and a compact that renumbers it (the merge left tombstones).
        w.compact();
        assert_ne!(w.field_loc(Field::attr(tid, 0)), Some((c, col)));
        assert_eq!(s.rel(&w, "r").unwrap().distinct_of("a"), Some(4));
        assert_eq!(s.counters().1, misses_after + 3, "a compact must recompute");

        // An or-set insert into another relation reaches no slot r reads.
        w.add_relation("s", Schema::new(vec![("c", ColumnType::Int)])).unwrap();
        w.push_orset("s", vec![OrSetCell::uniform(vec![Value::Int(1), Value::Int(2)]).unwrap()])
            .unwrap();
        let (hits, misses) = s.counters();
        assert_eq!(s.rel(&w, "r").unwrap().distinct_of("a"), Some(4));
        assert_eq!(s.counters(), (hits + 1, misses), "an unreached write must keep the entry");
    }

    #[test]
    fn one_collector_tells_equally_built_decompositions_apart() {
        // the same calls with other values: only the contents differ
        let build = |alts: [i64; 2], certain: &[(i64, &str)]| {
            let mut w = wsd_with(certain);
            w.push_orset(
                "r",
                vec![
                    OrSetCell::uniform(alts.map(Value::Int).to_vec()).unwrap(),
                    OrSetCell::certain("x"),
                ],
            )
            .unwrap();
            w
        };
        let a = build([7, 8], &[(1, "x"), (2, "y")]);
        let b = build([5, 6], &[(1, "x"), (1, "x")]);
        let mut s = WsdStats::new();
        for _ in 0..2 {
            let ra = s.rel(&a, "r").unwrap();
            assert_eq!((ra.distinct_of("a"), ra.distinct_of("b")), (Some(4), Some(2)));
            let rb = s.rel(&b, "r").unwrap();
            assert_eq!((rb.distinct_of("a"), rb.distinct_of("b")), (Some(3), Some(1)));
        }
    }

    #[test]
    fn certain_relation_stats_survive_unrelated_mutations() {
        let mut w = wsd_with(&[(1, "x")]);
        w.add_relation("s", Schema::new(vec![("c", ColumnType::Int)])).unwrap();
        let mut st = WsdStats::new();
        let _ = st.rel(&w, "r").unwrap();
        let (h0, m0) = st.counters();
        w.push_certain("s", vec![Value::Int(1)]).unwrap();
        let _ = st.rel(&w, "r").unwrap();
        let (h1, m1) = st.counters();
        assert_eq!((h1, m1), (h0 + 1, m0), "r's stats must stay cached");
    }

    #[test]
    fn estimates_within_bounds() {
        let w = wsd_with(&[(1, "x"), (1, "y"), (2, "x"), (3, "x"), (3, "y"), (3, "z")]);
        let mut s = WsdStats::new();

        // σ(a = 1): 6 rows / 3 distinct = 2.
        let q = Query::table("r").select(Expr::col("a").eq(Expr::lit(1i64)));
        let est = estimate_query(&q, &w, &mut s).unwrap();
        assert!((est.rows - 2.0).abs() < 1e-9, "rows = {}", est.rows);

        // Self-join on a ≈ |r|²/max(d, d).
        let q2 = Query::table("r")
            .qualify("x")
            .join(Query::table("r").qualify("y"), Expr::col("x.a").eq(Expr::col("y.a")));
        let est2 = estimate_query(&q2, &w, &mut s).unwrap();
        assert!((est2.rows - 12.0).abs() < 1e-9, "rows = {}", est2.rows);

        // Range predicates use the 1/3 rule.
        let q3 = Query::table("r").select(Expr::col("a").gt(Expr::lit(1i64)));
        let est3 = estimate_query(&q3, &w, &mut s).unwrap();
        assert!((est3.rows - 2.0).abs() < 1e-9, "rows = {}", est3.rows);
    }
}
