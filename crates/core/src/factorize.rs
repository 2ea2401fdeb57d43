//! Splitting components into independent factors.
//!
//! Decomposition is what makes WSDs exponentially more succinct than the
//! world-sets they represent: a component whose row distribution is a
//! product of distributions on disjoint column groups can be replaced by
//! one smaller component per group. This module detects such products and
//! performs the split (the inverse of [`crate::wsd::Wsd::merge_components`]).
//!
//! Marginal distributions are computed over the component's **interned
//! column codes** (`u32` keys) rather than cloned cell vectors, so a
//! marginal over k columns of an n-row component costs O(n·k) integer
//! hashing and no `Value` clones.

use std::collections::HashMap;

use crate::component::Component;
use crate::wsd::Wsd;

/// Union-find over dense indices: iterative path-halving `find` (no
/// recursion — stack-safe on arbitrarily wide components) with union by
/// size. Shared infrastructure: factorization groups correlated columns
/// with it, and [`crate::prob`] clusters template tuples by shared
/// components with it.
pub struct Uf {
    parent: Vec<usize>,
    size: Vec<usize>,
}

impl Uf {
    pub fn new(n: usize) -> Uf {
        Uf { parent: (0..n).collect(), size: vec![1; n] }
    }

    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            // path halving: point x at its grandparent, then step there
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }
}

/// Marginal distribution of a column group: distinct code combinations with
/// summed probabilities. Code keys are valid because interning is exact per
/// column.
fn marginal(c: &Component, cols: &[usize]) -> HashMap<Vec<u32>, f64> {
    let mut m: HashMap<Vec<u32>, f64> = HashMap::with_capacity(c.num_rows());
    for r in 0..c.num_rows() {
        let key: Vec<u32> = cols.iter().map(|&i| c.code(r, i)).collect();
        *m.entry(key).or_insert(0.0) += c.prob(r);
    }
    m
}

/// Tests whether columns `i` and `j` are (pairwise) independent: the joint
/// distribution must equal the product of the marginals on the *full* cross
/// support.
fn pairwise_independent(c: &Component, i: usize, j: usize, eps: f64) -> bool {
    let mi = marginal(c, &[i]);
    let mj = marginal(c, &[j]);
    let mij = marginal(c, &[i, j]);
    if mij.len() != mi.len() * mj.len() {
        return false; // missing combinations ⇒ correlated
    }
    for (key, &pij) in &mij {
        let pi = mi[&key[..1].to_vec()];
        let pj = mj[&key[1..].to_vec()];
        if (pij - pi * pj).abs() > eps {
            return false;
        }
    }
    true
}

/// Verifies that splitting into `blocks` exactly reconstructs `c`: the
/// product of the block marginals must have the same support size and
/// assign (within `eps`) the same probability to every original row.
/// Pairwise independence alone does not imply mutual independence, so this
/// check is what makes the split sound.
fn verify_split(c: &Component, blocks: &[Vec<usize>], eps: f64) -> bool {
    let marginals: Vec<HashMap<Vec<u32>, f64>> =
        blocks.iter().map(|b| marginal(c, b)).collect();
    let product_size: usize = marginals.iter().map(HashMap::len).product();
    // the deduplicated original support
    let full_cols: Vec<usize> = (0..c.num_fields()).collect();
    let original = marginal(c, &full_cols);
    if product_size != original.len() {
        return false;
    }
    for (codes, &p) in &original {
        let mut prod = 1.0;
        for (b, m) in blocks.iter().zip(&marginals) {
            let key: Vec<u32> = b.iter().map(|&i| codes[i]).collect();
            match m.get(&key) {
                Some(&q) => prod *= q,
                None => return false,
            }
        }
        if (p - prod).abs() > eps {
            return false;
        }
    }
    true
}

/// Factorizes a component into independent parts. Returns the column
/// blocks and the factor components; a single block means "not splittable".
pub fn factorize_component(c: &Component, eps: f64) -> (Vec<Vec<usize>>, Vec<Component>) {
    let n = c.num_fields();
    if n <= 1 || c.num_rows() <= 1 {
        return (vec![(0..n).collect()], vec![c.clone()]);
    }
    let mut uf = Uf::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if !pairwise_independent(c, i, j, eps) {
                uf.union(i, j);
            }
        }
    }
    let mut blocks_map: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..n {
        let r = uf.find(i);
        blocks_map.entry(r).or_default().push(i);
    }
    let mut blocks: Vec<Vec<usize>> = blocks_map.into_values().collect();
    blocks.sort_by_key(|b| b[0]);
    if blocks.len() == 1 {
        return (blocks, vec![c.clone()]);
    }
    if !verify_split(c, &blocks, eps * 10.0) {
        // conservative fallback: keep the component whole
        return (vec![(0..n).collect()], vec![c.clone()]);
    }
    let comps: Vec<Component> = blocks.iter().map(|b| c.project_columns(b)).collect();
    (blocks, comps)
}

/// Factorizes every live component of a WSD in place, retargeting the field
/// map onto the factor components through the reverse index.
pub fn factorize_all(wsd: &mut Wsd) {
    for idx in wsd.live_components() {
        let comp = wsd.component(idx).expect("live").clone(); // maybms-lint: allow(no-panic-in-prod) -- component indices are maintained by the WSD itself; a dangling index means the decomposition is corrupt, so fail-stop
        if comp.num_fields() <= 1 {
            continue;
        }
        let (blocks, factors) = factorize_component(&comp, 1e-9);
        if factors.len() <= 1 {
            continue;
        }
        // add_component re-aliases each factor's canonical fields away from
        // `idx`; whatever remains indexed under `idx` afterwards is an
        // alias and is retargeted through the block remap below.
        let mut new_indices: Vec<usize> = Vec::with_capacity(factors.len());
        for f in factors {
            new_indices.push(wsd.add_component(f));
        }
        // old column -> (factor component, column within it)
        let mut remap: HashMap<usize, (usize, usize)> = HashMap::new();
        for (bi, block) in blocks.iter().enumerate() {
            for (pos, &col) in block.iter().enumerate() {
                remap.insert(col, (new_indices[bi], pos));
            }
        }
        let leftover: Vec<(crate::field::Field, usize)> = wsd
            .fields_of_component(idx)
            .iter()
            .enumerate()
            .flat_map(|(col, fields)| fields.iter().map(move |&f| (f, col)))
            .collect();
        for (f, col) in leftover {
            wsd.alias_field(f, remap[&col]);
        }
        wsd.drop_component(idx);
    }
    wsd.compact();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Cell;
    use crate::component::CompRow;
    use crate::field::{Field, Tid};
    use maybms_relational::Value;

    fn v(n: i64) -> Cell {
        Cell::Val(Value::Int(n))
    }

    fn f(t: u64, a: u32) -> Field {
        Field::attr(Tid(t), a)
    }

    /// A product component: columns 0 and 1 independent.
    fn product_component() -> Component {
        let a = Component::singleton(f(1, 0), vec![(v(1), 0.4), (v(2), 0.6)]);
        let b = Component::singleton(f(1, 1), vec![(v(10), 0.5), (v(20), 0.5)]);
        a.product(&b)
    }

    #[test]
    fn splits_true_product() {
        let c = product_component();
        let (blocks, parts) = factorize_component(&c, 1e-9);
        assert_eq!(blocks.len(), 2);
        assert_eq!(parts.len(), 2);
        for p in &parts {
            p.validate().unwrap();
            assert_eq!(p.num_rows(), 2);
        }
    }

    #[test]
    fn keeps_correlated_component_whole() {
        // perfectly correlated: (1,10) w.p. 0.5, (2,20) w.p. 0.5
        let c = Component::new(
            vec![f(1, 0), f(1, 1)],
            vec![
                CompRow::new(vec![v(1), v(10)], 0.5),
                CompRow::new(vec![v(2), v(20)], 0.5),
            ],
        );
        let (blocks, parts) = factorize_component(&c, 1e-9);
        assert_eq!(blocks.len(), 1);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn partial_split() {
        // columns 0,1 correlated; column 2 independent of both
        let corr = Component::new(
            vec![f(1, 0), f(1, 1)],
            vec![
                CompRow::new(vec![v(1), v(10)], 0.3),
                CompRow::new(vec![v(2), v(20)], 0.7),
            ],
        );
        let ind = Component::singleton(f(1, 2), vec![(v(100), 0.5), (v(200), 0.5)]);
        let c = corr.product(&ind);
        let (blocks, parts) = factorize_component(&c, 1e-9);
        assert_eq!(blocks.len(), 2);
        let sizes: Vec<usize> = parts.iter().map(Component::num_fields).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
    }

    #[test]
    fn xor_is_not_split_despite_pairwise_independence() {
        // Three boolean columns where c = a XOR b, uniform on (a,b):
        // pairwise independent but mutually dependent. The verify step must
        // refuse to split.
        let rows = vec![
            CompRow::new(vec![v(0), v(0), v(0)], 0.25),
            CompRow::new(vec![v(0), v(1), v(1)], 0.25),
            CompRow::new(vec![v(1), v(0), v(1)], 0.25),
            CompRow::new(vec![v(1), v(1), v(0)], 0.25),
        ];
        let c = Component::new(vec![f(1, 0), f(1, 1), f(1, 2)], rows);
        let (blocks, _) = factorize_component(&c, 1e-9);
        assert_eq!(blocks.len(), 1, "XOR component must not be split");
    }

    #[test]
    fn union_find_is_stack_safe_on_wide_components() {
        // a long union chain that would overflow a recursive find
        let n = 200_000;
        let mut uf = Uf::new(n);
        for i in 1..n {
            uf.union(i - 1, i);
        }
        let root = uf.find(0);
        assert_eq!(uf.find(n - 1), root);
        assert_eq!(uf.size[root], n);
    }

    #[test]
    fn factorize_all_preserves_semantics() {
        use maybms_relational::{ColumnType, Schema};
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .unwrap();
        let t = w.fresh_tid();
        w.add_component(product_component_for(t));
        w.push_template(
            "r",
            crate::wsd::TupleTemplate {
                tid: t,
                cells: vec![crate::wsd::TemplateCell::Open, crate::wsd::TemplateCell::Open].into(),
                exists: crate::wsd::Existence::Always,
            },
        )
        .unwrap();
        let before = w.to_worldset(100).unwrap();
        assert_eq!(w.num_components(), 1);
        factorize_all(&mut w);
        w.validate().unwrap();
        assert_eq!(w.num_components(), 2);
        let after = w.to_worldset(100).unwrap();
        assert!(before.equivalent(&after, 1e-9));
    }

    fn product_component_for(t: Tid) -> Component {
        let a = Component::singleton(Field::attr(t, 0), vec![(v(1), 0.4), (v(2), 0.6)]);
        let b = Component::singleton(Field::attr(t, 1), vec![(v(10), 0.5), (v(20), 0.5)]);
        a.product(&b)
    }
}
