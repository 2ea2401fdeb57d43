//! Confidence computation — the paper's `prob()` construct.
//!
//! "asking for the probability of the ultrasound test being recommended
//! [...] would retrieve [...] the value 0.4. [...] In case the ultrasound
//! test is recommended in several worlds, then the answer to our query
//! would be computed by summing up the probabilities of this event over all
//! such worlds." (paper §2)
//!
//! Components are independent random variables, so the probability of an
//! event that touches only some components can be computed by enumerating
//! the joint choices of exactly those components. Template tuples are first
//! clustered by shared components; an answer's confidence multiplies across
//! clusters as `1 − ∏(1 − P_cluster)`. Clusters whose joint choice space
//! exceeds a cap are estimated by Monte-Carlo sampling (deterministic
//! xorshift seed), with the estimate flagged in [`Confidence::exact`].
//!
//! # Hot-path layout
//!
//! Cluster evaluation resolves every tuple's field locations **once** into
//! a `ResolvedTuple` (certain values prefilled, open fields as direct
//! `(position, component, column)` triples), then walks the joint choice
//! space with a single **dense choice vector** indexed by component id —
//! no per-world `HashMap`, no per-cell field-map lookups. The sampler
//! draws rows through precomputed cumulative-probability tables.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use maybms_obs::registry::DURATION_US_BOUNDS;
use maybms_obs::{Counter, Histogram};
use maybms_relational::{Error, Result, Tuple, Value};

use crate::cell::Cell;
use crate::exec::WorkerPool;
use crate::factorize::Uf;
use crate::field::{Field, Tid};
use crate::wsd::{Existence, TemplateCell, Wsd};

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

/// A confidence result: the answer tuple, its probability and whether the
/// number is exact or a Monte-Carlo estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Confidence {
    pub tuple: Tuple,
    pub p: f64,
    pub exact: bool,
}

/// Exact-by-default tuple confidence: every possible answer tuple of `rel`
/// with `P(tuple ∈ rel)`, the per-cluster walks fanned out over `pool`.
pub fn tuple_confidence_in(
    wsd: &Wsd,
    rel: &str,
    pool: &WorkerPool,
) -> Result<Vec<(Tuple, f64)>> {
    Ok(tuple_confidence_opts_in(wsd, rel, ProbOptions::default(), pool)?
        .into_iter()
        .map(|c| (c.tuple, c.p))
        .collect())
}

/// Tuples certain to be in `rel` (confidence 1 within `1e-9`).
pub fn certain_tuples_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<Vec<Tuple>> {
    Ok(tuple_confidence_in(wsd, rel, pool)?
        .into_iter()
        .filter(|(_, p)| (*p - 1.0).abs() < 1e-9)
        .map(|(t, _)| t)
        .collect())
}

/// Tuples possible in `rel` (confidence > 0).
pub fn possible_tuples_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<Vec<Tuple>> {
    Ok(tuple_confidence_in(wsd, rel, pool)?.into_iter().map(|(t, _)| t).collect())
}

/// Expected cardinality of `rel` under set semantics:
/// `E[|rel|] = Σ_v P(v ∈ rel)` by linearity of expectation.
pub fn expected_count_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<f64> {
    Ok(tuple_confidence_in(wsd, rel, pool)?.iter().map(|(_, p)| p).sum())
}

/// Expected sum of column `col` over `rel` (set semantics):
/// `E[Σ_{t∈rel} t.col] = Σ_v v.col · P(v ∈ rel)`. NULLs contribute 0.
pub fn expected_sum_in(wsd: &Wsd, rel: &str, col: &str, pool: &WorkerPool) -> Result<f64> {
    let idx = wsd.relation(rel)?.schema.index_of(col)?;
    Ok(tuple_confidence_in(wsd, rel, pool)?
        .iter()
        .map(|(t, p)| t[idx].as_f64().unwrap_or(0.0) * p)
        .sum())
}

/// `P(rel is non-empty)` — the confidence of a boolean query, with the
/// per-cluster walks fanned out over `pool`.
pub fn nonempty_confidence_in(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<f64> {
    let m = metrics();
    m.calls.inc();
    #[allow(clippy::disallowed_methods)]
    // maybms-lint: allow(determinism) -- duration histogram observation only; the answer comes from the inner call
    let began = Instant::now();
    let out = nonempty_confidence_inner(wsd, rel, pool);
    m.duration_us.observe_duration(began.elapsed());
    out
}

fn nonempty_confidence_inner(wsd: &Wsd, rel: &str, pool: &WorkerPool) -> Result<f64> {
    let clusters = cluster_tuples(wsd, rel)?;
    if clusters.iter().any(|cl| cl.has_always_certain) {
        return Ok(1.0);
    }
    let resolved = resolve_relation(wsd, rel)?;
    let dists = cluster_distributions(wsd, &clusters, &resolved, ProbOptions::default(), pool)?;
    let mut p_empty_all = 1.0;
    for dist in &dists {
        p_empty_all *= 1.0 - dist.p_any_exists;
    }
    Ok(1.0 - p_empty_all)
}

impl Wsd {
    /// Convenience method: [`tuple_confidence_in`] on the sequential pool.
    pub fn tuple_confidence(&self, rel: &str) -> Result<Vec<(Tuple, f64)>> {
        tuple_confidence_in(self, rel, WorkerPool::sequential())
    }
}

/// Full-control variant returning exactness flags, with the per-cluster
/// distribution walks fanned out over `pool` when they are large enough
/// to pay for it. Clusters are independent random variables, so
/// their joint-choice enumerations parallelize embarrassingly; the
/// per-value merge runs serially in cluster order, making the result
/// bit-identical to the sequential path at every worker count.
pub fn tuple_confidence_opts_in(
    wsd: &Wsd,
    rel: &str,
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Result<Vec<Confidence>> {
    let m = metrics();
    m.calls.inc();
    #[allow(clippy::disallowed_methods)]
    // maybms-lint: allow(determinism) -- duration histogram observation only; the answer comes from the inner call
    let began = Instant::now();
    let out = tuple_confidence_opts_inner(wsd, rel, opts, pool);
    m.duration_us.observe_duration(began.elapsed());
    out
}

fn tuple_confidence_opts_inner(
    wsd: &Wsd,
    rel: &str,
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Result<Vec<Confidence>> {
    let clusters = cluster_tuples(wsd, rel)?;
    let resolved = resolve_relation(wsd, rel)?;
    let dists = cluster_distributions(wsd, &clusters, &resolved, opts, pool)?;
    // per value: per-cluster probability of "some tuple of the cluster
    // takes this value and exists"
    let mut per_value: HashMap<Tuple, Vec<(f64, bool)>> = HashMap::new();
    for dist in dists {
        // maybms-lint: allow(determinism) -- accumulates into a value-keyed map; visit order cannot affect the per-value products
        for (val, e) in dist.per_value {
            per_value.entry(val).or_default().push((e.p_any, e.exact));
        }
    }
    // maybms-lint: allow(determinism) -- hash order is erased by the sort_by tuple comparison before returning
    let mut out: Vec<Confidence> = per_value
        .into_iter()
        .map(|(tuple, probs)| {
            let mut p_not = 1.0;
            let mut exact = true;
            for (p, ex) in probs {
                p_not *= 1.0 - p;
                exact &= ex;
            }
            Confidence { tuple, p: (1.0 - p_not).min(1.0), exact }
        })
        .collect();
    out.sort_by(|a, b| a.tuple.cmp(&b.tuple));
    Ok(out)
}

// ---------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------

struct Cluster {
    tids: Vec<Tid>,
    comps: Vec<usize>,
    /// true iff the cluster contains a fully-certain always-existing tuple
    /// (then every world has it).
    has_always_certain: bool,
}

/// Groups the template tuples of `rel` into clusters connected by shared
/// components; tuples touching no component form singleton "certain"
/// clusters. Connectivity runs on [`Uf`] (shared with
/// [`crate::factorize`]) over dense component ids: one union per
/// (tuple, component) edge, then one grouping pass — no ad-hoc cluster
/// merging, and near-linear on wide answer relations.
fn cluster_tuples(wsd: &Wsd, rel: &str) -> Result<Vec<Cluster>> {
    let tpl = wsd.relation(rel)?;
    // tuple -> component set, with components densely renumbered
    let mut dense: HashMap<usize, usize> = HashMap::new();
    let mut dense_to_comp: Vec<usize> = Vec::new();
    let mut t_comps: Vec<(Tid, Vec<usize>)> = Vec::with_capacity(tpl.tuples.len());
    for t in &tpl.tuples {
        let mut comps: Vec<usize> = Vec::new();
        for (i, c) in t.cells.iter().enumerate() {
            if matches!(c, TemplateCell::Open) {
                let (ci, _) = wsd
                    .field_loc(Field::attr(t.tid, i as u32))
                    .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {}.#{i}", t.tid)))?;
                comps.push(ci);
            }
        }
        if t.exists == Existence::Open {
            let (ci, _) = wsd
                .field_loc(Field::exists(t.tid))
                .ok_or_else(|| Error::InvalidExpr(format!("unmapped ∃ of {}", t.tid)))?;
            comps.push(ci);
        }
        comps.sort_unstable();
        comps.dedup();
        for &c in &comps {
            dense.entry(c).or_insert_with(|| {
                dense_to_comp.push(c);
                dense_to_comp.len() - 1
            });
        }
        t_comps.push((t.tid, comps));
    }

    let mut uf = Uf::new(dense_to_comp.len());
    for (_, comps) in &t_comps {
        for w in comps.windows(2) {
            uf.union(dense[&w[0]], dense[&w[1]]);
        }
    }

    // one cluster per union-find root, in first-seen tuple order
    let mut cluster_of_root: HashMap<usize, usize> = HashMap::new();
    let mut clusters: Vec<Cluster> = Vec::new();
    for (tid, comps) in &t_comps {
        if comps.is_empty() {
            clusters.push(Cluster {
                tids: vec![*tid],
                comps: Vec::new(),
                has_always_certain: true,
            });
            continue;
        }
        let root = uf.find(dense[&comps[0]]);
        let cid = *cluster_of_root.entry(root).or_insert_with(|| {
            clusters.push(Cluster {
                tids: Vec::new(),
                comps: Vec::new(),
                has_always_certain: false,
            });
            clusters.len() - 1
        });
        clusters[cid].tids.push(*tid);
    }
    // attach each component to its root's cluster, in dense (first-seen)
    // order so the enumeration order stays deterministic
    for (d, &comp) in dense_to_comp.iter().enumerate() {
        let root = uf.find(d);
        if let Some(&cid) = cluster_of_root.get(&root) {
            clusters[cid].comps.push(comp);
        }
    }
    Ok(clusters)
}

// ---------------------------------------------------------------------
// Per-cluster distribution
// ---------------------------------------------------------------------

struct ValueEntry {
    /// P(some tuple of the cluster exists with this value)
    p_any: f64,
    exact: bool,
}

/// The joint distribution of one cluster's answers.
struct ClusterDist {
    per_value: HashMap<Tuple, ValueEntry>,
    /// P(some tuple of the cluster exists at all).
    p_any_exists: f64,
}

/// One template tuple with every field location resolved ahead of the
/// choice-space walk: certain values prefilled in `base`, open fields as
/// direct `(position, component, column)` triples.
struct ResolvedTuple {
    base: Vec<Value>,
    open: Vec<(usize, usize, usize)>,
    exists: Option<(usize, usize)>,
}

impl ResolvedTuple {
    fn resolve(wsd: &Wsd, tid: Tid, cells: &[TemplateCell], exists: Existence) -> Result<ResolvedTuple> {
        let mut base = Vec::with_capacity(cells.len());
        let mut open = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            match cell {
                TemplateCell::Certain(v) => base.push(v.clone()),
                TemplateCell::Open => {
                    let (c, col) = wsd
                        .field_loc(Field::attr(tid, i as u32))
                        .ok_or_else(|| Error::InvalidExpr(format!("unmapped field {tid}.#{i}")))?;
                    open.push((i, c, col));
                    base.push(Value::Null);
                }
            }
        }
        let exists = match exists {
            Existence::Always => None,
            Existence::Open => Some(
                wsd.field_loc(Field::exists(tid))
                    .ok_or_else(|| Error::InvalidExpr(format!("unmapped ∃ of {tid}")))?,
            ),
        };
        Ok(ResolvedTuple { base, open, exists })
    }

    /// The tuple's value under a dense `choice` (row index per component),
    /// or `None` if it does not exist there.
    fn value_under(&self, wsd: &Wsd, choice: &[usize]) -> Option<Tuple> {
        if let Some((c, col)) = self.exists {
            let comp = wsd.component(c).expect("mapped"); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
            if comp.cell(choice[c], col).is_bottom() {
                return None;
            }
        }
        let mut vals = self.base.clone();
        for &(pos, c, col) in &self.open {
            let comp = wsd.component(c).expect("mapped"); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
            match comp.cell(choice[c], col) {
                Cell::Val(v) => vals[pos] = v.clone(),
                Cell::Bottom => return None,
            }
        }
        Some(Tuple::new(vals))
    }
}

/// Resolves every tuple of `rel` once — one pass over the template,
/// shared by all clusters.
fn resolve_relation(wsd: &Wsd, rel: &str) -> Result<HashMap<Tid, ResolvedTuple>> {
    let tpl = wsd.relation(rel)?;
    let mut out = HashMap::with_capacity(tpl.tuples.len());
    for t in &tpl.tuples {
        out.insert(t.tid, ResolvedTuple::resolve(wsd, t.tid, &t.cells, t.exists)?);
    }
    Ok(out)
}

/// The joint choice count of a cluster's components (saturating).
fn joint_choices(wsd: &Wsd, cl: &Cluster) -> Result<u64> {
    cl.comps.iter().try_fold(1u64, |joint, &c| {
        let comp =
            wsd.component(c).ok_or_else(|| Error::InvalidExpr(format!("dead component {c}")))?;
        Ok(joint.saturating_mul(comp.num_rows() as u64))
    })
}

/// Tuple evaluations (choices walked × tuples in the cluster, summed over
/// clusters) below which [`cluster_distributions`] stays on the caller's
/// thread. One evaluation measured 0.15 µs (two-tuple clusters) to 1.2 µs
/// (E6's wide census clusters) and a `WorkerPool::map` call pays 20–90 µs
/// per helper thread, so this asks for at least ~2.5 ms of walking: the
/// scoreboard's largest statement has 5 688 evaluations, E6 has 10⁵–10⁶.
const FAN_OUT_MIN_EVALS: u64 = 1 << 14;

/// Evaluates every cluster's distribution, in cluster order. The
/// independent cluster walks fan out over `pool` when there is more than
/// one and together they are worth a thread spawn; otherwise one
/// sequential loop reuses a single dense scratch vector across clusters
/// (the zero-allocation hot path).
fn cluster_distributions(
    wsd: &Wsd,
    clusters: &[Cluster],
    resolved: &HashMap<Tid, ResolvedTuple>,
    opts: ProbOptions,
    pool: &WorkerPool,
) -> Result<Vec<ClusterDist>> {
    let mut evals = 0u64;
    if pool.workers() > 1 && clusters.len() > 1 {
        for cl in clusters {
            let joint = joint_choices(wsd, cl)?;
            let walked = if joint <= opts.exact_cap { joint } else { opts.mc_samples as u64 };
            evals = evals.saturating_add(walked.saturating_mul(cl.tids.len() as u64));
        }
    }
    if evals < FAN_OUT_MIN_EVALS {
        let mut choice = vec![0usize; wsd.num_component_slots()];
        return clusters
            .iter()
            .map(|cl| cluster_distribution(wsd, cl, resolved, &mut choice, opts))
            .collect();
    }
    pool.map(clusters, |_, cl| {
        let mut choice = vec![0usize; wsd.num_component_slots()];
        cluster_distribution(wsd, cl, resolved, &mut choice, opts)
    })
    .into_iter()
    .collect()
}

/// Enumerates (or samples) the joint choices of the cluster's components and
/// returns, per answer value, P(some cluster tuple exists with that value).
/// `choice` is a caller-owned dense scratch vector (one slot per component
/// slot) reused across clusters.
fn cluster_distribution(
    wsd: &Wsd,
    cl: &Cluster,
    resolved: &HashMap<Tid, ResolvedTuple>,
    choice: &mut [usize],
    opts: ProbOptions,
) -> Result<ClusterDist> {
    let mut dist = ClusterDist { per_value: HashMap::new(), p_any_exists: 0.0 };
    let tuples: Vec<&ResolvedTuple> = cl
        .tids
        .iter()
        .map(|tid| {
            resolved
                .get(tid)
                .ok_or_else(|| Error::InvalidExpr(format!("cluster tuple {tid} not found")))
        })
        .collect::<Result<_>>()?;

    if cl.comps.is_empty() {
        // fully certain tuples
        for t in &tuples {
            debug_assert!(t.open.is_empty(), "certain cluster");
            dist.per_value
                .insert(Tuple::new(t.base.clone()), ValueEntry { p_any: 1.0, exact: true });
        }
        dist.p_any_exists = 1.0;
        return Ok(dist);
    }

    for &c in &cl.comps {
        choice[c] = 0;
    }
    if joint_choices(wsd, cl)? <= opts.exact_cap {
        enumerate_cluster(wsd, cl, &tuples, choice, &mut dist)?;
    } else {
        sample_cluster(wsd, cl, &tuples, choice, &mut dist, opts)?;
    }
    Ok(dist)
}

fn enumerate_cluster(
    wsd: &Wsd,
    cl: &Cluster,
    tuples: &[&ResolvedTuple],
    choice: &mut [usize],
    dist: &mut ClusterDist,
) -> Result<()> {
    let widths: Vec<usize> = cl
        .comps
        .iter()
        .map(|&c| wsd.component(c).expect("live").num_rows()) // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
        .collect();
    // the dense choice vector is driven in place by the odometer — no
    // per-choice map
    let mut present: Vec<Tuple> = Vec::new();
    loop {
        let mut p = 1.0;
        for &c in &cl.comps {
            p *= wsd.component(c).expect("live").prob(choice[c]); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
        }
        // distinct values present under this choice
        present.clear();
        for t in tuples {
            if let Some(v) = t.value_under(wsd, choice) {
                if !present.contains(&v) {
                    present.push(v);
                }
            }
        }
        if !present.is_empty() {
            dist.p_any_exists += p;
        }
        for v in present.drain(..) {
            let e = dist
                .per_value
                .entry(v)
                .or_insert(ValueEntry { p_any: 0.0, exact: true });
            e.p_any += p;
        }

        let mut k = cl.comps.len();
        loop {
            if k == 0 {
                return Ok(());
            }
            k -= 1;
            let c = cl.comps[k];
            choice[c] += 1;
            if choice[c] < widths[k] {
                break;
            }
            choice[c] = 0;
        }
    }
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

fn sample_cluster(
    wsd: &Wsd,
    cl: &Cluster,
    tuples: &[&ResolvedTuple],
    choice: &mut [usize],
    dist: &mut ClusterDist,
    opts: ProbOptions,
) -> Result<()> {
    let mut rng = XorShift(opts.seed | 1);
    let n = opts.mc_samples.max(1);
    let inv = 1.0 / n as f64;
    // cumulative probability table per cluster component, computed once
    let cum: Vec<Vec<f64>> = cl
        .comps
        .iter()
        .map(|&c| {
            let comp = wsd.component(c).expect("live"); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
            let mut acc = 0.0;
            comp.probs()
                .iter()
                .map(|&p| {
                    acc += p;
                    acc
                })
                .collect()
        })
        .collect();
    let mut present: Vec<Tuple> = Vec::new();
    for _ in 0..n {
        for (k, &c) in cl.comps.iter().enumerate() {
            let u = rng.next_f64();
            let table = &cum[k];
            // binary search the cumulative table; partition_point returns
            // the first row whose cumulative mass exceeds u
            let pick = table.partition_point(|&acc| acc <= u).min(table.len() - 1);
            choice[c] = pick;
        }
        present.clear();
        for t in tuples {
            if let Some(v) = t.value_under(wsd, choice) {
                if !present.contains(&v) {
                    present.push(v);
                }
            }
        }
        if !present.is_empty() {
            dist.p_any_exists += inv;
        }
        for v in present.drain(..) {
            let e = dist
                .per_value
                .entry(v)
                .or_insert(ValueEntry { p_any: 0.0, exact: false });
            e.p_any += inv;
            e.exact = false;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Query;
    use crate::examples::medical_wsd;
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
        let ans = q.eval(&wsd).unwrap();
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
    fn certain_and_possible() {
        let wsd = medical_wsd();
        let certain = certain_tuples_in(&wsd, "R", WorkerPool::sequential()).unwrap();
        assert_eq!(certain.len(), 1); // the obesity record
        assert_eq!(certain[0][0], Value::str("obesity"));
        let possible = possible_tuples_in(&wsd, "R", WorkerPool::sequential()).unwrap();
        assert_eq!(possible.len(), 5); // 4 r1-variants + obesity
    }

    #[test]
    fn nonempty_confidence_of_selection() {
        let wsd = medical_wsd();
        let q = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("pregnancy")));
        let ans = q.eval(&wsd).unwrap();
        let p = nonempty_confidence_in(&ans, "result", WorkerPool::sequential()).unwrap();
        assert!((p - 0.4).abs() < 1e-9);
        // selecting the certain tuple: always nonempty
        let q2 = Query::table("R").select(Expr::col("diagnosis").eq(Expr::lit("obesity")));
        let ans2 = q2.eval(&wsd).unwrap();
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
        let clusters = cluster_tuples(&w, "r").unwrap();
        let evals: u64 = clusters
            .iter()
            .map(|cl| joint_choices(&w, cl).unwrap() * cl.tids.len() as u64)
            .sum();
        assert!(clusters.len() == 8 && evals >= FAN_OUT_MIN_EVALS, "{evals} evaluations");
        let opts = ProbOptions::default();
        let seq = tuple_confidence_opts_in(&w, "r", opts, WorkerPool::sequential()).unwrap();
        for workers in [2, 4] {
            let par = tuple_confidence_opts_in(&w, "r", opts, &WorkerPool::new(workers)).unwrap();
            assert_eq!(par, seq, "workers = {workers}");
        }
    }
}
