//! Confidence computation — the paper's `prob()` construct.
//!
//! "asking for the probability of the ultrasound test being recommended
//! [...] would retrieve [...] the value 0.4. [...] In case the ultrasound
//! test is recommended in several worlds, then the answer to our query
//! would be computed by summing up the probabilities of this event over all
//! such worlds." (paper §2)
//!
//! Components are independent random variables. Each template tuple is
//! resolved once into its `Choices`: per component holding one of its
//! open cells or its open ∃ field, the distinct projections of that
//! component's rows onto what the tuple reads there, rows where the tuple
//! is absent left out. Every combination of one projection per component
//! is one value of the tuple, with the product of their probabilities.
//!
//! # What each world mode computes
//!
//! * `POSSIBLE` is duplicate elimination: every template's combinations,
//!   written into one row buffer, a `Tuple` built only for a value not
//!   seen before. No probability, no clustering.
//! * `EXPECTED COUNT`/`SUM` is linearity of expectation: the sum over
//!   templates of `E[f(t) · 1(t exists)]`, a product of per-component
//!   factors. This is exact under set semantics only for a template that
//!   can share no whole value with another, so templates are first
//!   bucketed by possible values column by column; those still sharing a
//!   bucket go through the accumulator below.
//! * `PROB()` and `CERTAIN` fold into one accumulator, per value
//!   `∏(1 − P_cluster)` over the clusters of templates connected by shared
//!   components, in cluster order. A one-template cluster needs no walk:
//!   each combination is a distinct value. A value is certain iff some
//!   cluster yields it in every one of its joint choices, decided on
//!   booleans, not on the float product. A cluster of several templates
//!   walks the joint choices of the distinct projections of its
//!   components onto what it reads, fanned out over the worker pool when
//!   large, and past a cap is estimated by Monte-Carlo sampling
//!   (deterministic xorshift seed), flagged in [`Confidence::exact`].

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use maybms_obs::registry::DURATION_US_BOUNDS;
use maybms_obs::{Counter, Histogram};
use maybms_relational::{ColumnType, Error, Result, Tuple, Value};

use crate::algebra::common::{choices, distinct_rows, walk, Choices, Part};
use crate::cell::Cell;
use crate::component::Component;
use crate::exec::WorkerPool;
use crate::factorize::Uf;
use crate::wsd::{TemplateCell, TupleTemplate, Wsd};

/// Confidence-computation counters, resolved once.
struct ProbMetrics {
    calls: Arc<Counter>,
    duration_us: Arc<Histogram>,
}

fn metrics() -> &'static ProbMetrics {
    static M: OnceLock<ProbMetrics> = OnceLock::new();
    M.get_or_init(|| ProbMetrics {
        calls: maybms_obs::counter("prob.confidence_calls"),
        duration_us: maybms_obs::histogram("prob.confidence_us", DURATION_US_BOUNDS),
    })
}

/// Runs one public entry point: counted once in `prob.confidence_calls`
/// and timed in `prob.confidence_us`.
fn timed<T>(f: impl FnOnce() -> T) -> T {
    let m = metrics();
    m.calls.inc();
    #[allow(clippy::disallowed_methods)]
    // maybms-lint: allow(determinism) -- duration histogram observation only; `f` gives the answer
    let began = Instant::now();
    let out = f();
    m.duration_us.observe_duration(began.elapsed());
    out
}

/// Options for confidence computation.
#[derive(Debug, Clone, Copy)]
pub struct ProbOptions {
    /// Maximum joint choice count per cluster for exact computation.
    pub exact_cap: u64,
    /// Monte-Carlo samples per cluster beyond the cap.
    pub mc_samples: u32,
    /// RNG seed for the sampler.
    pub seed: u64,
}

impl Default for ProbOptions {
    fn default() -> Self {
        ProbOptions { exact_cap: 1 << 20, mc_samples: 200_000, seed: 0x9e3779b97f4a7c15 }
    }
}

/// A confidence result: the answer tuple, its probability, whether the
/// number is exact or a Monte-Carlo estimate, and whether the tuple is in
/// every world (`None` where only a sampled cluster could tell).
#[derive(Debug, Clone, PartialEq)]
pub struct Confidence {
    pub tuple: Tuple,
    pub p: f64,
    pub exact: bool,
    pub certain: Option<bool>,
}

/// Exact-by-default tuple confidence: every possible answer tuple of `rel`
/// with `P(tuple ∈ rel)`, the per-cluster walks fanned out over `pool`.
pub fn tuple_confidence_in(
    wsd: &Wsd,
    rel: &str,
    pool: &WorkerPool,
) -> Result<Vec<(Tuple, f64)>> {
    timed(|| {
        let conf = confidences(wsd, rel, ProbOptions::default(), pool)?;
        Ok(conf.into_iter().map(|c| (c.tuple, c.p)).collect())
    })
}

/// Tuples in every world of `rel`: those some cluster yields in every
/// one of its joint choices. Fails with [`Error::Undecided`] where only a
/// Monte-Carlo-sampled cluster could make a tuple certain.
pub fn certain_tuples_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<Vec<Tuple>> {
    timed(|| {
        let conf = confidences(wsd, rel, ProbOptions::default(), pool)?;
        if let Some(c) = conf.iter().find(|c| c.certain.is_none()) {
            let why = format!("whether {} is certain rests on sampling", c.tuple);
            return Err(Error::Undecided(why));
        }
        Ok(conf.into_iter().filter(|c| c.certain == Some(true)).map(|c| c.tuple).collect())
    })
}

/// Tuples possible in `rel`, sorted: duplicate elimination over every
/// template's values, no probability computed.
pub fn possible_tuples_in(wsd: &Wsd, rel: &str, _pool: &WorkerPool) -> Result<Vec<Tuple>> {
    timed(|| {
        let resolved = resolve_relation(wsd, rel)?;
        let (mut out, mut shared) = (Vec::new(), HashSet::new());
        for (t, collides) in resolved.iter().zip(may_collide(&resolved)) {
            if t.choices.is_empty() && !collides {
                out.push(t.row());
                continue;
            }
            walk(&t.choices, &mut t.row(), |v, _| {
                if !collides {
                    out.push(v.clone());
                } else if !shared.contains(v) {
                    shared.insert(v.clone());
                }
                true
            });
        }
        out.extend(shared); // hash order is erased by the sort
        out.sort_unstable();
        Ok(out)
    })
}

/// Expected cardinality of `rel` under set semantics:
/// `E[|rel|] = Σ_v P(v ∈ rel)` by linearity of expectation.
pub fn expected_count_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<f64> {
    timed(|| expected(wsd, rel, None, pool))
}

/// Expected sum of column `col` over `rel` (set semantics):
/// `E[Σ_{t∈rel} t.col] = Σ_v v.col · P(v ∈ rel)`. NULLs contribute 0; a
/// column that is not numeric is a type error.
pub fn expected_sum_in(wsd: &Wsd, rel: &str, col: &str, pool: &WorkerPool) -> Result<f64> {
    timed(|| {
        let schema = &wsd.relation(rel)?.schema;
        let idx = schema.index_of(col)?;
        match schema.column(idx).ty {
            ColumnType::Int | ColumnType::Float => expected(wsd, rel, Some(idx), pool),
            ty => Err(Error::TypeError(format!("EXPECTED SUM({col}) over the {ty} column {col}"))),
        }
    })
}

/// `P(rel is non-empty)` — the confidence of a boolean query, with the
/// per-cluster walks fanned out over `pool`.
pub fn nonempty_confidence_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<f64> {
    timed(|| {
        let resolved = resolve_relation(wsd, rel)?;
        if resolved.iter().any(|t| t.choices.is_empty()) {
            return Ok(1.0);
        }
        let all: Vec<usize> = (0..resolved.len()).collect();
        let clusters = cluster_tuples(&resolved, &all);
        let walks = walk_clusters(&resolved, &clusters, ProbOptions::default(), pool);
        let mut p_empty = 1.0;
        for (cl, dist) in clusters.iter().zip(walks) {
            p_empty *= 1.0 - dist.map_or_else(|| expectation(&resolved[cl[0]], None), |d| d.p_any);
        }
        Ok(1.0 - p_empty)
    })
}

impl Wsd {
    /// Convenience method: [`tuple_confidence_in`] on the sequential pool.
    pub fn tuple_confidence(&self, rel: &str) -> Result<Vec<(Tuple, f64)>> {
        tuple_confidence_in(self, rel, WorkerPool::sequential())
    }
}

/// Full-control variant returning exactness flags, with the walks of
/// clusters of several templates fanned out over `pool` when they are
/// large enough to pay for it. Clusters are independent random variables,
/// so their walks parallelize embarrassingly; the fold runs serially in
/// cluster order, making the result bit-identical to the sequential path
/// at every worker count.
pub fn tuple_confidence_opts_in(
    wsd: &Wsd,
    rel: &str,
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Result<Vec<Confidence>> {
    timed(|| confidences(wsd, rel, opts, pool))
}

fn confidences(
    wsd: &Wsd,
    rel: &str,
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Result<Vec<Confidence>> {
    let resolved = resolve_relation(wsd, rel)?;
    let all: Vec<usize> = (0..resolved.len()).collect();
    Ok(confidences_of(&resolved, &all, opts, pool))
}

// ---------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------

/// One template tuple, resolved once into its [`Choices`].
struct Resolved<'w> {
    t: &'w TupleTemplate,
    choices: Vec<Choices<'w>>,
}

impl Resolved<'_> {
    /// The template's certain value at `pos`; NULL where it is open.
    fn cell(&self, pos: usize) -> &Value {
        match &self.t.cells[pos] {
            TemplateCell::Certain(v) => v,
            TemplateCell::Open => &Value::Null,
        }
    }

    /// A row buffer holding the template's certain values.
    fn row(&self) -> Tuple {
        Tuple::new((0..self.t.cells.len()).map(|pos| self.cell(pos).clone()).collect())
    }
}

/// Resolves every template of `rel`, in template order.
fn resolve_relation<'w>(wsd: &'w Wsd, rel: &str) -> Result<Vec<Resolved<'w>>> {
    let tpl = wsd.relation(rel)?;
    let all: Vec<usize> = (0..tpl.schema.len()).collect();
    tpl.tuples
        .iter()
        .map(|t| {
            let part = [Part::new(t, &all, 0)];
            Ok(Resolved { t, choices: choices(wsd, &part, true)? })
        })
        .collect()
}

/// The possible values of a template at `pos`.
fn possible_at<'a>(t: &'a Resolved<'_>, pos: usize) -> Vec<&'a Value> {
    for ch in &t.choices {
        if let Some(&(_, col)) = ch.reads.iter().find(|r| r.0 == pos) {
            return ch.rows.iter().filter_map(|&(r, _)| ch.comp.cell(r, col).value()).collect();
        }
    }
    vec![t.cell(pos)]
}

/// Per template, whether it may share a whole value with another. The
/// templates are bucketed by their possible values one column at a time,
/// within the groups that shared a bucket on every column before; NULL is
/// a bucket like any value, as it equals NULL in a tuple. A template left
/// in no group of two cannot collide. Refining stops, leaving every group
/// member colliding, once the groups hold more than four entries per
/// template.
fn may_collide(resolved: &[Resolved<'_>]) -> Vec<bool> {
    let n = resolved.len();
    let width = resolved.first().map_or(0, |t| t.t.cells.len());
    let mut groups: Vec<Vec<usize>> = vec![(0..n).collect()];
    for pos in 0..width {
        if groups.is_empty() || groups.iter().map(Vec::len).sum::<usize>() > 4 * n {
            break;
        }
        let mut next = Vec::new();
        for group in &groups {
            let mut buckets: HashMap<&Value, Vec<usize>> = HashMap::new();
            for &i in group {
                for v in possible_at(&resolved[i], pos) {
                    let b = buckets.entry(v).or_default();
                    if b.last() != Some(&i) {
                        b.push(i);
                    }
                }
            }
            // maybms-lint: allow(determinism) -- hash order is erased by the sort and dedup below
            next.extend(buckets.into_values().filter(|b| b.len() > 1));
        }
        next.sort_unstable();
        next.dedup();
        groups = next;
    }
    let mut out = vec![false; n];
    for i in groups.into_iter().filter(|g| g.len() > 1).flatten() {
        out[i] = true;
    }
    out
}

/// The numeric view of a value in an aggregate: NULL counts 0.
fn number(v: &Value) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// `E[f(t) · 1(t exists)]` for one template, with `f` its value at `col`,
/// or 1 for `None` (then the probability that it exists). Its components
/// are independent, so this is a product of per-component factors.
fn expectation(t: &Resolved<'_>, col: Option<usize>) -> f64 {
    let (mut e, mut certain) = (1.0, col);
    for ch in &t.choices {
        let at = col.and_then(|pos| ch.reads.iter().find(|r| r.0 == pos));
        if at.is_some() {
            certain = None;
        }
        let f = |r: usize| at.map_or(1.0, |&(_, c)| ch.comp.cell(r, c).value().map_or(0.0, number));
        e *= ch.rows.iter().map(|&(r, p)| p * f(r)).sum::<f64>();
    }
    e * certain.map_or(1.0, |pos| number(t.cell(pos)))
}

/// `EXPECTED COUNT()` (`col` none) or `EXPECTED SUM(col)` over `rel`: per
/// template that can collide with none, its [`expectation`], in template
/// order; then the rest through the accumulator.
fn expected(wsd: &Wsd, rel: &str, col: Option<usize>, pool: &WorkerPool) -> Result<f64> {
    let resolved = resolve_relation(wsd, rel)?;
    let collide = may_collide(&resolved);
    let (shared, free): (Vec<usize>, Vec<usize>) = (0..resolved.len()).partition(|&i| collide[i]);
    let mut sum: f64 = free.iter().map(|&i| expectation(&resolved[i], col)).sum();
    for c in confidences_of(&resolved, &shared, ProbOptions::default(), pool) {
        sum += col.map_or(1.0, |pos| number(&c.tuple[pos])) * c.p;
    }
    Ok(sum)
}

// ---------------------------------------------------------------------
// The accumulator
// ---------------------------------------------------------------------

/// Every possible value of the templates `members` of `resolved`, sorted,
/// with the probability that one of them takes it.
fn confidences_of(
    resolved: &[Resolved<'_>],
    members: &[usize],
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Vec<Confidence> {
    let clusters = cluster_tuples(resolved, members);
    let walks = walk_clusters(resolved, &clusters, opts, pool);
    // per value: ∏(1 − P_cluster), whether every factor is exact, and
    // whether some cluster yields it always (`None`: only a sampled one)
    let mut acc: HashMap<Tuple, (f64, bool, Option<bool>)> = HashMap::new();
    let mut fold = |v: &Tuple, p: f64, exact: bool, always: Option<bool>| match acc.get_mut(v) {
        Some(e) => *e = (e.0 * (1.0 - p), e.1 && exact, either(e.2, always)),
        None => drop(acc.insert(v.clone(), (1.0 - p, exact, always))),
    };
    for (cl, dist) in clusters.iter().zip(walks) {
        match dist {
            None => {
                let t = &resolved[cl[0]];
                let always = t.choices.iter().all(|ch| {
                    ch.rows.len() == 1 && ch.live.iter().all(|&c| !ch.comp.column_has_bottom(c))
                });
                walk(&t.choices, &mut t.row(), |v, p| {
                    fold(v, p, true, Some(always));
                    true
                });
            }
            Some(d) => d.values.iter().for_each(|(v, p, all)| {
                fold(v, *p, d.exact, if d.exact || !all { Some(*all) } else { None })
            }),
        }
    }
    // maybms-lint: allow(determinism) -- hash order is erased by the sort before returning
    let mut out: Vec<Confidence> = acc
        .into_iter()
        .map(|(tuple, (p_not, exact, certain))| {
            Confidence { tuple, p: (1.0 - p_not).min(1.0), exact, certain }
        })
        .collect();
    out.sort_unstable_by(|a, b| a.tuple.cmp(&b.tuple));
    out
}

/// Whether one of two clusters yields a value in every choice: `None`
/// where no exact walk shows it and a sampled one cannot rule it out.
fn either(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    if a == Some(true) || b == Some(true) { Some(true) } else { a.and(b) }
}

/// Groups the templates `members` into clusters connected by shared
/// components, as template indices in first-seen order; a template
/// reading no component is a cluster of its own. Connectivity runs on
/// [`Uf`] (shared with [`crate::factorize`]) over dense component ids.
fn cluster_tuples(resolved: &[Resolved<'_>], members: &[usize]) -> Vec<Vec<usize>> {
    let mut dense: HashMap<usize, usize> = HashMap::new();
    for ch in members.iter().flat_map(|&i| &resolved[i].choices) {
        let next = dense.len();
        dense.entry(ch.id).or_insert(next);
    }
    let mut uf = Uf::new(dense.len());
    for &i in members {
        for w in resolved[i].choices.windows(2) {
            uf.union(dense[&w[0].id], dense[&w[1].id]);
        }
    }
    let mut cluster_of_root: HashMap<usize, usize> = HashMap::new();
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for &i in members {
        let Some(ch) = resolved[i].choices.first() else {
            clusters.push(vec![i]);
            continue;
        };
        let cid = *cluster_of_root.entry(uf.find(dense[&ch.id])).or_insert_with(|| {
            clusters.push(Vec::new());
            clusters.len() - 1
        });
        clusters[cid].push(i);
    }
    clusters
}

// ---------------------------------------------------------------------
// Clusters of several templates
// ---------------------------------------------------------------------

/// The distribution of one cluster of several templates.
struct ClusterDist {
    /// Per value, P(some template of the cluster exists with it), and
    /// whether one does in every choice walked (or sampled).
    values: Vec<(Tuple, f64, bool)>,
    /// P(some template of the cluster exists at all).
    p_any: f64,
    exact: bool,
}

/// A cluster's components, in first-seen order, each with every column
/// its templates read there.
fn cluster_components<'w>(
    resolved: &[Resolved<'w>],
    cl: &[usize],
) -> Vec<(usize, &'w Component, Vec<usize>)> {
    let mut comps: Vec<(usize, &Component, Vec<usize>)> = Vec::new();
    for ch in cl.iter().flat_map(|&i| &resolved[i].choices) {
        match comps.iter_mut().find(|c| c.0 == ch.id) {
            Some(c) => c.2.extend(&ch.live),
            None => comps.push((ch.id, ch.comp, ch.live.clone())),
        }
    }
    comps
}

/// The joint choice count of a cluster's raw component rows (saturating),
/// which bounds the count of its distinct projections.
fn joint_rows(resolved: &[Resolved<'_>], cl: &[usize]) -> u64 {
    let comps = cluster_components(resolved, cl);
    comps.iter().fold(1u64, |j, c| j.saturating_mul(c.1.num_rows() as u64))
}

/// Tuple evaluations (raw joint choices × templates, summed over the
/// clusters of several templates) below which [`walk_clusters`] stays on
/// the caller's thread. One evaluation measured 0.15 µs (two-tuple
/// clusters) to 1.2 µs (E6's wide census clusters) and a
/// `WorkerPool::map` call pays 20–90 µs per helper thread, so this asks
/// for at least ~2.5 ms of walking. E6 has 10⁵–10⁶; the census and `obs`
/// statements of `benchmark/` walk none, as no cluster there holds two
/// templates.
const FAN_OUT_MIN_EVALS: u64 = 1 << 14;

/// Walks every cluster of several templates, in cluster order; `None`
/// for a one-template cluster. The independent walks fan out over `pool`
/// when there is more than one and together they are worth a thread
/// spawn.
fn walk_clusters(
    resolved: &[Resolved<'_>],
    clusters: &[Vec<usize>],
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Vec<Option<ClusterDist>> {
    let mut evals = 0u64;
    if pool.workers() > 1 && clusters.iter().filter(|cl| cl.len() > 1).nth(1).is_some() {
        for cl in clusters.iter().filter(|cl| cl.len() > 1) {
            let joint = joint_rows(resolved, cl);
            let walked = if joint <= opts.exact_cap { joint } else { opts.mc_samples as u64 };
            evals = evals.saturating_add(walked.saturating_mul(cl.len() as u64));
        }
    }
    let dist = |cl: &Vec<usize>, choice: &mut Vec<usize>| {
        (cl.len() > 1).then(|| cluster_dist(resolved, cl, choice, opts))
    };
    if evals < FAN_OUT_MIN_EVALS {
        let mut choice = Vec::new();
        return clusters.iter().map(|cl| dist(cl, &mut choice)).collect();
    }
    pool.map(clusters, |_, cl| dist(cl, &mut Vec::new()))
}

/// Enumerates (or samples) the joint choices of the cluster's components,
/// over the distinct projections of each onto the columns the cluster
/// reads there, ⊥ kept. `choice` is a scratch vector indexed by component
/// id, holding the row each component takes.
fn cluster_dist(
    resolved: &[Resolved<'_>],
    cl: &[usize],
    choice: &mut Vec<usize>,
    opts: ProbOptions,
) -> ClusterDist {
    let reps: Vec<(usize, Vec<(usize, f64)>)> = cluster_components(resolved, cl)
        .into_iter()
        .map(|(id, comp, cols)| (id, distinct_rows(comp, &cols, &[])))
        .collect();
    if let Some(max) = reps.iter().map(|r| r.0).max() {
        choice.resize(choice.len().max(max + 1), 0);
    }
    let joint = reps.iter().fold(1u64, |j, r| j.saturating_mul(r.1.len() as u64));
    let exact = joint <= opts.exact_cap;
    let (mut values, mut p_any, mut visits) = (HashMap::new(), 0.0, 0u64);
    let mut present: Vec<Tuple> = Vec::new();
    let mut visit = |choice: &[usize], p: f64| {
        present.extend(cl.iter().filter_map(|&i| value_under(&resolved[i], choice)));
        present.sort_unstable();
        present.dedup();
        if !present.is_empty() {
            p_any += p;
        }
        visits += 1;
        for v in present.drain(..) {
            let e = values.entry(v).or_insert((0.0, 0u64));
            *e = (e.0 + p, e.1 + 1);
        }
    };
    if exact {
        let mut at = vec![0; reps.len()];
        loop {
            let mut p = 1.0;
            for ((id, rows), &i) in reps.iter().zip(&at) {
                choice[*id] = rows[i].0;
                p *= rows[i].1;
            }
            visit(choice, p);
            let Some(k) = at.iter().zip(&reps).position(|(&i, r)| i + 1 < r.1.len()) else {
                break;
            };
            at[..k].fill(0);
            at[k] += 1;
        }
    } else {
        let mut rng = XorShift(opts.seed | 1);
        let n = opts.mc_samples.max(1);
        // cumulative probability table per component, computed once
        let cum: Vec<Vec<f64>> = reps
            .iter()
            .map(|(_, rows)| {
                let mut acc = 0.0;
                rows.iter()
                    .map(|r| {
                        acc += r.1;
                        acc
                    })
                    .collect()
            })
            .collect();
        for _ in 0..n {
            for ((id, rows), table) in reps.iter().zip(&cum) {
                // the first row whose cumulative mass exceeds u
                let u = rng.next_f64();
                choice[*id] = rows[table.partition_point(|&acc| acc <= u).min(table.len() - 1)].0;
            }
            visit(choice, 1.0 / n as f64);
        }
    }
    // in hash order: each value is folded once per cluster, so no order reaches a product
    let values = values.into_iter().map(|(v, (p, n))| (v, p, n == visits)).collect();
    ClusterDist { values, p_any, exact }
}

/// A template's value where each component takes the row `choice` names,
/// or `None` if it is absent there.
fn value_under(t: &Resolved<'_>, choice: &[usize]) -> Option<Tuple> {
    let live =
        |ch: &Choices<'_>| ch.live.iter().all(|&c| !ch.comp.cell(choice[ch.id], c).is_bottom());
    if !t.choices.iter().all(live) {
        return None;
    }
    let mut v = t.row();
    for ch in &t.choices {
        for &(pos, col) in &ch.reads {
            if let Cell::Val(x) = ch.comp.cell(choice[ch.id], col) {
                v.values_mut()[pos].clone_from(x);
            }
        }
    }
    Some(v)
}

/// xorshift64* — deterministic, dependency-free sampler.
struct XorShift(u64);
impl XorShift {
    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        let bits = x.wrapping_mul(0x2545F4914F6CDD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Query;
    use crate::examples::medical_wsd;
    use crate::exec::eval;
    use maybms_relational::{ColumnType, Expr, Schema};
    use maybms_worldset::OrSetCell;

    /// Brute-force oracle for confidence.
    fn oracle_confidence(wsd: &Wsd, rel: &str) -> Vec<(Tuple, f64)> {
        wsd.to_worldset(1_000_000).unwrap().tuple_confidence(rel)
    }

    fn assert_matches_oracle(wsd: &Wsd, rel: &str) {
        let fast = wsd.tuple_confidence(rel).unwrap();
        let slow = oracle_confidence(wsd, rel);
        assert_eq!(fast.len(), slow.len(), "answer sets differ: {fast:?} vs {slow:?}");
        for ((t1, p1), (t2, p2)) in fast.iter().zip(&slow) {
            assert_eq!(t1, t2);
            assert!((p1 - p2).abs() < 1e-9, "{t1:?}: {p1} vs {p2}");
        }
    }

    #[test]
    fn paper_prob_query() {
        // prob() of ultrasound being recommended in pregnancy diagnosis: 0.4
        let wsd = medical_wsd();
        let q = Query::table("R")
            .select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")))
            .project(["test"]);
        let ans = eval(&q, &wsd).unwrap();
        let conf = ans.tuple_confidence("result").unwrap();
        assert_eq!(conf.len(), 1);
        assert!((conf[0].1 - 0.4).abs() < 1e-12);
        assert_matches_oracle(&ans, "result");
    }

    #[test]
    fn confidence_on_base_relation_matches_oracle() {
        let wsd = medical_wsd();
        assert_matches_oracle(&wsd, "R");
    }

    #[test]
    fn independent_duplicates_combine() {
        // two independent tuples that can both be value 1:
        // P(1 present) = 1 - (1-0.5)(1-0.5) = 0.75
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        for _ in 0..2 {
            w.push_orset(
                "r",
                vec![OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap()],
            )
            .unwrap();
        }
        let conf = w.tuple_confidence("r").unwrap();
        let one = conf.iter().find(|(t, _)| t[0] == Value::Int(1)).unwrap();
        assert!((one.1 - 0.75).abs() < 1e-12);
        assert_matches_oracle(&w, "r");
    }

    #[test]
    fn templates_sharing_a_value_go_through_the_accumulator() {
        // two independent {1, 2} tuples can both be 1 or both be 2, so
        // E[|r|] = P(1 ∈ r) + P(2 ∈ r) = 0.75 + 0.75, not 2; a certain 3
        // shares a value with neither
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        for _ in 0..2 {
            let alts = vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)];
            w.push_orset("r", vec![OrSetCell::weighted(alts).unwrap()]).unwrap();
        }
        w.push_orset("r", vec![OrSetCell::certain(3i64)]).unwrap();
        let resolved = resolve_relation(&w, "r").unwrap();
        assert_eq!(may_collide(&resolved), vec![true, true, false]);
        let seq = WorkerPool::sequential();
        assert!((expected_count_in(&w, "r", seq).unwrap() - 2.5).abs() < 1e-12);
        assert!((expected_sum_in(&w, "r", "a", seq).unwrap() - 5.25).abs() < 1e-12);
        let possible = possible_tuples_in(&w, "r", seq).unwrap();
        assert_eq!(possible, [1, 2, 3].map(|v| Tuple::new(vec![Value::Int(v)])));
    }

    #[test]
    fn certain_and_possible() {
        let wsd = medical_wsd();
        let certain = certain_tuples_in(&wsd, "R", WorkerPool::sequential()).unwrap();
        assert_eq!(certain.len(), 1); // the obesity record
        assert_eq!(certain[0][0], Value::str("obesity"));
        let possible = possible_tuples_in(&wsd, "R", WorkerPool::sequential()).unwrap();
        assert_eq!(possible.len(), 5); // 4 r1-variants + obesity
    }

    /// Certainty is decided on booleans: values 1 and 2 are each in
    /// every world through a cluster of two templates that swap them, 3
    /// and 4 in half. Sampling that cluster can only leave 1 and 2
    /// undecided.
    #[test]
    fn certainty_is_decided_on_booleans() {
        use crate::component::CompRow;
        use crate::field::Field;
        use crate::wsd::Existence;
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        let (t1, t2) = (w.fresh_tid(), w.fresh_tid());
        let int = |x| Cell::Val(Value::Int(x));
        let row = |x, y| CompRow::new(vec![int(x), int(y)], 0.5);
        let fields = vec![Field::attr(t1, 0), Field::attr(t2, 0)];
        w.add_component(Component::new(fields, vec![row(1, 2), row(2, 1)]));
        for tid in [t1, t2] {
            let (cells, exists) = (vec![TemplateCell::Open].into(), Existence::Always);
            w.push_template("r", TupleTemplate { tid, cells, exists }).unwrap();
        }
        let alternatives = vec![(Value::Int(3), 0.5), (Value::Int(4), 0.5)];
        w.push_orset("r", vec![OrSetCell::weighted(alternatives).unwrap()]).unwrap();
        w.validate().unwrap();

        let seq = WorkerPool::sequential();
        let certain = certain_tuples_in(&w, "r", seq).unwrap();
        let ints = |v: &[Tuple]| v.iter().map(|t| t[0].as_i64().unwrap()).collect::<Vec<_>>();
        assert_eq!(ints(&certain), [1, 2]);
        assert_eq!(certain, w.to_worldset(100).unwrap().certain_tuples("r"));

        let sampled = ProbOptions { exact_cap: 1, mc_samples: 1_000, seed: 7 };
        let conf = tuple_confidence_opts_in(&w, "r", sampled, seq).unwrap();
        let undecided: Vec<Tuple> =
            conf.iter().filter(|c| c.certain.is_none()).map(|c| c.tuple.clone()).collect();
        assert_eq!(ints(&undecided), [1, 2]);
        assert!(conf.iter().all(|c| c.certain != Some(true)), "a sample proves no certainty");
    }

    #[test]
    fn nonempty_confidence_of_selection() {
        let wsd = medical_wsd();
        let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")));
        let ans = eval(&q, &wsd).unwrap();
        let p = nonempty_confidence_in(&ans, "result", WorkerPool::sequential()).unwrap();
        assert!((p - 0.4).abs() < 1e-9);
        // selecting the certain tuple: always nonempty
        let q2 = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("obesity")));
        let ans2 = eval(&q2, &wsd).unwrap();
        let p2 = nonempty_confidence_in(&ans2, "result", WorkerPool::sequential()).unwrap();
        assert!((p2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_fallback_is_close() {
        // big cluster: force sampling with a tiny exact cap
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        for _ in 0..4 {
            w.push_orset(
                "r",
                vec![OrSetCell::weighted(vec![(Value::Int(1), 0.5), (Value::Int(2), 0.5)]).unwrap()],
            )
            .unwrap();
        }
        // correlate everything so it is one cluster
        let live = w.live_components();
        w.merge_components(&live).unwrap();
        let opts = ProbOptions { exact_cap: 1, mc_samples: 60_000, seed: 42 };
        let est = tuple_confidence_opts_in(&w, "r", opts, WorkerPool::sequential()).unwrap();
        let exact = oracle_confidence(&w, "r");
        for c in &est {
            assert!(!c.exact);
            let (_, p) = exact.iter().find(|(t, _)| *t == c.tuple).unwrap();
            assert!((c.p - p).abs() < 0.02, "MC estimate too far: {} vs {}", c.p, p);
        }
    }

    /// Eight correlated clusters of 3 tuples × 12³ joint choices are past
    /// `FAN_OUT_MIN_EVALS`, so workers > 1 takes the `pool.map` branch; its
    /// answer must be bit-identical to the sequential loop's.
    #[test]
    fn fan_out_is_bit_identical_to_sequential() {
        let mut w = Wsd::new();
        w.add_relation("r", Schema::new(vec![("a", ColumnType::Int)])).unwrap();
        for g in 0..8i64 {
            for _ in 0..3 {
                let alts = (0..12).map(|k| (Value::Int(g * 100 + k), 1.0 / 12.0)).collect();
                w.push_orset("r", vec![OrSetCell::weighted(alts).unwrap()]).unwrap();
            }
        }
        for group in w.live_components().chunks(3) {
            w.merge_components(group).unwrap();
        }
        let resolved = resolve_relation(&w, "r").unwrap();
        let all: Vec<usize> = (0..resolved.len()).collect();
        let clusters = cluster_tuples(&resolved, &all);
        let evals: u64 =
            clusters.iter().map(|cl| joint_rows(&resolved, cl) * cl.len() as u64).sum();
        assert!(clusters.len() == 8 && evals >= FAN_OUT_MIN_EVALS, "{evals} evaluations");
        let opts = ProbOptions::default();
        let seq = tuple_confidence_opts_in(&w, "r", opts, WorkerPool::sequential()).unwrap();
        for workers in [2, 4] {
            let par = tuple_confidence_opts_in(&w, "r", opts, &WorkerPool::new(workers)).unwrap();
            assert_eq!(par, seq, "workers = {workers}");
        }
    }
}
