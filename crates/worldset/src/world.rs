//! Explicit worlds and world-sets.

use std::collections::BTreeMap;

use maybms_relational::{Relation, Result, Tuple, Value};

/// One possible world: a complete database (name → relation).
/// Worlds compare by *canonical* (sorted, set-semantics) relation content,
/// matching the paper's set-based world semantics.
#[derive(Debug, Clone, Default)]
pub struct World {
    relations: BTreeMap<String, Relation>,
}

impl World {
    pub fn new() -> World {
        World::default()
    }

    /// A world holding a single relation named `name`.
    pub fn single(name: impl Into<String>, r: Relation) -> World {
        let mut w = World::new();
        w.put(name, r);
        w
    }

    pub fn put(&mut self, name: impl Into<String>, r: Relation) {
        self.relations.insert(name.into(), r);
    }

    pub fn get(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    pub fn relations(&self) -> impl Iterator<Item = (&str, &Relation)> {
        self.relations.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Canonical form: every relation sorted and deduplicated. Two worlds
    /// are "the same world" iff their canonical forms are equal.
    pub fn canonical(&self) -> World {
        World {
            relations: self
                .relations
                .iter()
                .map(|(k, v)| (k.clone(), v.canonical()))
                .collect(),
        }
    }

    /// A canonical key usable for hashing/grouping worlds.
    pub fn canonical_key(&self) -> WorldKey {
        self.canonical()
            .relations
            .into_iter()
            .map(|(k, v)| {
                let mut rows = v.rows().to_vec();
                rows.sort();
                (k, rows)
            })
            .collect()
    }
}

impl PartialEq for World {
    fn eq(&self, other: &Self) -> bool {
        self.canonical_key() == other.canonical_key()
    }
}
impl Eq for World {}

/// The canonical key of a world: per relation, its sorted distinct tuples.
pub type WorldKey = Vec<(String, Vec<Tuple>)>;

/// A finite set of possible worlds with probabilities.
///
/// Invariant (checked by [`WorldSet::validate`]): probabilities are positive
/// and sum to 1 within tolerance.
#[derive(Debug, Clone, Default)]
pub struct WorldSet {
    worlds: Vec<(World, f64)>,
}

impl WorldSet {
    pub fn new(worlds: Vec<(World, f64)>) -> WorldSet {
        WorldSet { worlds }
    }

    /// The world-set containing exactly one certain world.
    pub fn certain(w: World) -> WorldSet {
        WorldSet { worlds: vec![(w, 1.0)] }
    }

    pub fn worlds(&self) -> &[(World, f64)] {
        &self.worlds
    }

    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }

    pub fn push(&mut self, w: World, p: f64) {
        self.worlds.push((w, p));
    }

    /// Checks the probability invariant.
    pub fn validate(&self) -> Result<()> {
        use maybms_relational::Error;
        let total: f64 = self.worlds.iter().map(|(_, p)| *p).sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(Error::InvalidExpr(format!(
                "world probabilities sum to {total}, expected 1"
            )));
        }
        if self.worlds.iter().any(|(_, p)| *p <= 0.0) {
            return Err(Error::InvalidExpr("non-positive world probability".into()));
        }
        Ok(())
    }

    /// Merges equal worlds (by canonical key), summing probabilities, and
    /// sorts deterministically. This is the semantic identity of a
    /// world-set; two world-sets are equivalent iff their merged forms agree.
    pub fn merged(&self) -> Vec<(WorldKey, f64)> {
        let mut acc: Vec<(WorldKey, f64)> = Vec::new();
        for (w, p) in &self.worlds {
            let key = w.canonical_key();
            match acc.iter_mut().find(|(k, _)| *k == key) {
                Some((_, q)) => *q += p,
                None => acc.push((key, *p)),
            }
        }
        acc.sort_by(|a, b| a.0.cmp(&b.0));
        acc
    }

    /// Semantic equivalence of two world-sets: same worlds with the same
    /// total probabilities (within `eps`).
    pub fn equivalent(&self, other: &WorldSet, eps: f64) -> bool {
        let (a, b) = (self.merged(), other.merged());
        if a.len() != b.len() {
            return false;
        }
        a.iter()
            .zip(&b)
            .all(|((ka, pa), (kb, pb))| ka == kb && (pa - pb).abs() <= eps)
    }

    /// Applies a per-world transformation, keeping probabilities. The
    /// closure maps each world to a new world (e.g. "evaluate query Q").
    pub fn map<F>(&self, mut f: F) -> Result<WorldSet>
    where
        F: FnMut(&World) -> Result<World>,
    {
        let mut out = Vec::with_capacity(self.worlds.len());
        for (w, p) in &self.worlds {
            out.push((f(w)?, *p));
        }
        Ok(WorldSet { worlds: out })
    }

    /// Removes worlds failing a predicate and renormalizes probabilities —
    /// the semantics of data cleaning / conditioning (E2).
    pub fn filter<F>(&self, mut keep: F) -> Result<WorldSet>
    where
        F: FnMut(&World) -> Result<bool>,
    {
        let mut out = Vec::new();
        for (w, p) in &self.worlds {
            if keep(w)? {
                out.push((w.clone(), *p));
            }
        }
        let total: f64 = out.iter().map(|(_, p)| *p).sum();
        if total > 0.0 {
            for (_, p) in &mut out {
                *p /= total;
            }
        }
        Ok(WorldSet { worlds: out })
    }

    /// All tuples of relation `rel` possible in some world, with the total
    /// probability of the worlds containing them — brute-force `prob()`.
    pub fn tuple_confidence(&self, rel: &str) -> Vec<(Tuple, f64)> {
        let mut acc: Vec<(Tuple, f64)> = Vec::new();
        for (w, p) in &self.worlds {
            if let Some(r) = w.get(rel) {
                for t in r.canonical().rows() {
                    match acc.iter_mut().find(|(u, _)| u == t) {
                        Some((_, q)) => *q += p,
                        None => acc.push((t.clone(), *p)),
                    }
                }
            }
        }
        acc.sort_by(|a, b| a.0.cmp(&b.0));
        acc
    }

    /// Tuples present in *every* world (certain answers), decided on
    /// membership, not on a probability near 1.
    pub fn certain_tuples(&self, rel: &str) -> Vec<Tuple> {
        let in_world = |w: &World, t: &Tuple| w.get(rel).is_some_and(|r| r.rows().contains(t));
        let mut out = self.possible_tuples(rel);
        out.retain(|t| self.worlds.iter().all(|(w, _)| in_world(w, t)));
        out
    }

    /// Tuples present in at least one world (possible answers).
    pub fn possible_tuples(&self, rel: &str) -> Vec<Tuple> {
        self.tuple_confidence(rel).into_iter().map(|(t, _)| t).collect()
    }

    /// Brute-force expected cardinality of `rel` (set semantics).
    pub fn expected_count(&self, rel: &str) -> f64 {
        self.worlds
            .iter()
            .map(|(w, p)| w.get(rel).map(|r| r.canonical().len()).unwrap_or(0) as f64 * p)
            .sum()
    }

    /// Brute-force expected sum of column `col` over `rel` (set semantics);
    /// non-numeric and NULL values contribute 0.
    pub fn expected_sum(&self, rel: &str, col: usize) -> f64 {
        self.worlds
            .iter()
            .map(|(w, p)| {
                w.get(rel)
                    .map(|r| {
                        r.canonical()
                            .iter()
                            .map(|t| t[col].as_f64().unwrap_or(0.0))
                            .sum::<f64>()
                    })
                    .unwrap_or(0.0)
                    * p
            })
            .sum()
    }

    /// Probability that relation `rel` is non-empty — the paper's
    /// `prob()`-style boolean query confidence.
    pub fn nonempty_confidence(&self, rel: &str) -> f64 {
        self.worlds
            .iter()
            .filter(|(w, _)| w.get(rel).map(|r| !r.is_empty()).unwrap_or(false))
            .map(|(_, p)| *p)
            .sum()
    }
}

/// Convenience: builds a one-relation, one-row world for tests.
pub fn tiny_world(rel: &str, r: Relation) -> World {
    World::single(rel, r)
}

/// Convenience: a `Value` row.
pub fn row(vals: Vec<Value>) -> Tuple {
    Tuple::new(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maybms_relational::{ColumnType, Schema};

    fn rel(vals: &[i64]) -> Relation {
        let mut r = Relation::empty(Schema::new(vec![("a", ColumnType::Int)]));
        for v in vals {
            r.push_values(vec![Value::Int(*v)]).unwrap();
        }
        r
    }

    #[test]
    fn world_equality_is_set_based() {
        let w1 = World::single("r", rel(&[1, 2, 2]));
        let w2 = World::single("r", rel(&[2, 1]));
        assert_eq!(w1, w2);
        let w3 = World::single("r", rel(&[1]));
        assert_ne!(w1, w3);
    }

    #[test]
    fn validate_checks_probabilities() {
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[1])), 0.4),
            (World::single("r", rel(&[2])), 0.6),
        ]);
        assert!(ws.validate().is_ok());
        let bad = WorldSet::new(vec![(World::single("r", rel(&[1])), 0.5)]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn merged_combines_equal_worlds() {
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[1])), 0.3),
            (World::single("r", rel(&[1])), 0.2),
            (World::single("r", rel(&[2])), 0.5),
        ]);
        let m = ws.merged();
        assert_eq!(m.len(), 2);
        assert!(ws.equivalent(
            &WorldSet::new(vec![
                (World::single("r", rel(&[2])), 0.5),
                (World::single("r", rel(&[1])), 0.5),
            ]),
            1e-9
        ));
    }

    #[test]
    fn filter_renormalizes() {
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[1])), 0.4),
            (World::single("r", rel(&[2])), 0.6),
        ]);
        let cleaned = ws
            .filter(|w| Ok(w.get("r").unwrap().rows()[0][0] == Value::Int(1)))
            .unwrap();
        assert_eq!(cleaned.len(), 1);
        assert!((cleaned.worlds()[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_confidence_sums_world_probabilities() {
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[1, 2])), 0.4),
            (World::single("r", rel(&[2])), 0.6),
        ]);
        let conf = ws.tuple_confidence("r");
        assert_eq!(conf.len(), 2);
        assert_eq!(conf[0].0[0], Value::Int(1));
        assert!((conf[0].1 - 0.4).abs() < 1e-12);
        assert!((conf[1].1 - 1.0).abs() < 1e-12);
        assert_eq!(ws.certain_tuples("r").len(), 1);
        assert_eq!(ws.possible_tuples("r").len(), 2);
        // a tuple missing from one world is not certain, however likely
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[1, 2])), 1.0 - 1e-10),
            (World::single("r", rel(&[2])), 1e-10),
        ]);
        assert_eq!(ws.certain_tuples("r"), [Tuple::new(vec![Value::Int(2)])]);
    }

    #[test]
    fn nonempty_confidence() {
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[])), 0.25),
            (World::single("r", rel(&[9])), 0.75),
        ]);
        assert!((ws.nonempty_confidence("r") - 0.75).abs() < 1e-12);
        assert_eq!(ws.nonempty_confidence("missing"), 0.0);
    }

    #[test]
    fn map_applies_per_world() {
        let ws = WorldSet::new(vec![
            (World::single("r", rel(&[1, 2, 3])), 1.0),
        ]);
        let mapped = ws
            .map(|w| {
                let r = w.get("r").unwrap();
                let filtered = maybms_relational::ops::select(
                    r,
                    &maybms_relational::Expr::col("a").gt(maybms_relational::Expr::lit(1i64)),
                )?;
                Ok(World::single("q", filtered))
            })
            .unwrap();
        assert_eq!(mapped.worlds()[0].0.get("q").unwrap().len(), 2);
    }
}
