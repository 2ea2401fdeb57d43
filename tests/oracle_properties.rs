//! Property tests: the WSD layer must commute with world enumeration on
//! randomized inputs. These are the core soundness guarantees of the
//! reproduction (DESIGN.md §7).

use proptest::prelude::*;

use maybms_core::algebra::{extract, join_op_in, join_op_nested, Query};
use maybms_core::chase::{clean, Constraint};
use maybms_core::codec::{decode_wsd, encode_wsd};
use maybms_core::convert::from_worldset;
use maybms_core::exec::{compile, eval, Executor, WorkerPool};
use maybms_core::normalize::{normalize, normalize_from_scratch, normalize_full};
use maybms_core::prob;
use maybms_core::wsd::{Existence, TemplateCell, TupleTemplate, Wsd};
use maybms_relational::{BinOp, ColumnType, Expr, Schema, Value};
use maybms_worldset::eval::eval_in_all_worlds;
use maybms_worldset::OrSetCell;

/// A strategy for small random or-set WSDs over schema r(a int, b int).
fn arb_wsd() -> impl Strategy<Value = Wsd> {
    // per tuple: (a-alternatives, b-alternatives); alternative values 0..4
    let cell = prop::collection::btree_set(0i64..4, 1..3);
    let tuple = (cell.clone(), cell);
    prop::collection::vec(tuple, 1..4).prop_map(|tuples| {
        let mut w = Wsd::new();
        w.add_relation(
            "r",
            Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]),
        )
        .expect("fresh");
        for (a, b) in tuples {
            let mk = |s: std::collections::BTreeSet<i64>| {
                OrSetCell::uniform(s.into_iter().map(Value::Int).collect()).expect("non-empty")
            };
            w.push_orset("r", vec![mk(a), mk(b)]).expect("typed");
        }
        w
    })
}

/// A strategy for random SQL mutation statements over tables r/s with
/// schema (a INT, b INT). Sequences start from `CREATE TABLE r`;
/// statements that happen to be invalid at their position (insert after
/// drop, rename onto an existing name, unsatisfiable repair) are filtered
/// by a dry run at use site.
fn arb_mutation() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..5, 0i64..5)
            .prop_map(|(a, b)| format!("INSERT INTO r VALUES ({a}, {b})")),
        (0i64..5, 0i64..5)
            .prop_map(|(a, b)| format!("INSERT INTO r VALUES ({{{a}, {}}}, {b})", a + 1)),
        (0i64..5, 0i64..5).prop_map(|(a, b)| {
            format!(
                "INSERT INTO r VALUES ({a}, {{{b}: 0.25, {}: 0.75}}), ({}, {b})",
                b + 1,
                a + 2
            )
        }),
        Just("REPAIR KEY r(a)".to_string()),
        (0i64..6).prop_map(|k| format!("REPAIR CHECK r: a <= {k}")),
        Just("REPAIR FD r: a -> b".to_string()),
        (0i64..5).prop_map(|k| format!("DELETE FROM r WHERE a = {k}")),
        (0i64..5).prop_map(|k| format!("DELETE FROM r WHERE b > {k}")),
        (0i64..5, 0i64..5).prop_map(|(k, v)| format!("UPDATE r SET b = {v} WHERE a = {k}")),
        (0i64..5, 0i64..5)
            .prop_map(|(k, v)| format!("UPDATE r SET a = {v}, b = {v} WHERE b < {k}")),
        Just("ALTER TABLE r RENAME TO s".to_string()),
        Just("ALTER TABLE s RENAME TO r".to_string()),
        Just("DROP TABLE r".to_string()),
        Just("CREATE TABLE r (a INT, b INT)".to_string()),
    ]
}

/// One step of a random transactional script: a mutation statement or a
/// transaction-control statement.
#[derive(Debug, Clone)]
enum TxnOp {
    Stmt(String),
    Begin,
    Commit,
    Rollback,
}

/// Mutations dominate; control ops appear often enough to nest scripts
/// inside transactions (invalid control at a position is skipped at use
/// site, mirroring on both sessions).
fn arb_txn_op() -> impl Strategy<Value = TxnOp> {
    prop_oneof![
        arb_mutation().prop_map(TxnOp::Stmt),
        arb_mutation().prop_map(TxnOp::Stmt),
        arb_mutation().prop_map(TxnOp::Stmt),
        Just(TxnOp::Begin),
        Just(TxnOp::Commit),
        Just(TxnOp::Rollback),
    ]
}

/// A strategy for random algebra queries over r.
fn arb_query() -> impl Strategy<Value = Query> {
    let leaf = Just(Query::table("r"));
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..4).prop_map(|(q, v)| q.select(Expr::col("a").eq(Expr::lit(v)))),
            (inner.clone(), 0i64..4).prop_map(|(q, v)| q.select(Expr::col("b").gt(Expr::lit(v)))),
            (inner.clone(), 0i64..4).prop_map(|(q, v)| q.select(
                Expr::col("a").eq(Expr::lit(v)).and(Expr::col("b").ne(Expr::lit(v)))
            )),
            // 12 / b raises where b = 0: the engine must reject exactly
            // when a world where the tuple exists does
            (inner.clone(), 0i64..4).prop_map(|(q, v)| q.select(
                Expr::Bin(BinOp::Div, Box::new(Expr::lit(12i64)), Box::new(Expr::col("b")))
                    .gt(Expr::lit(v))
            )),
            // settled without a merge: true in every world (values are
            // 0..4), false in every world, and an error that only some
            // combinations of independent a and b raise
            inner.clone().prop_map(|q| q.select(Expr::col("a").lt(Expr::lit(4i64)))),
            inner.clone().prop_map(|q| q.select(Expr::col("a").eq(Expr::lit(9i64)))),
            (inner.clone(), 0i64..4).prop_map(|(q, v)| q.select(
                Expr::Bin(
                    BinOp::Div,
                    Box::new(Expr::lit(12i64)),
                    Box::new(Expr::Bin(
                        BinOp::Sub,
                        Box::new(Expr::col("a")),
                        Box::new(Expr::col("b")),
                    )),
                )
                .gt(Expr::lit(v))
            )),
            inner.clone().prop_map(|q| q.project(["a"])),
            inner.clone().prop_map(|q| q.project(["b", "a"])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.difference(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                a.qualify("x")
                    .join(b.qualify("y"), Expr::col("x.a").eq(Expr::col("y.b")))
            }),
        ]
    })
}

/// One step of a random script of decomposition mutations, over the
/// relations `r` and `s` of schema (a INT, b INT).
#[derive(Debug, Clone)]
enum WsdOp {
    PushOrSet(&'static str, i64, i64),
    PushCertain(&'static str, i64, i64),
    Delete(&'static str, i64),
    Update(&'static str, i64, i64),
    RepairKey(&'static str),
    /// Merge the live components at these positions (modulo their count).
    Merge(usize, usize),
    /// Push onto `r` a tuple whose `a` reads the location of the open
    /// field at this position among `r`'s open fields (modulo their
    /// count): a fresh field aliased to that location.
    Alias(usize),
    Normalize,
    Compact,
    Remove(&'static str),
    Rename(&'static str, &'static str),
}

fn arb_wsd_op() -> impl Strategy<Value = WsdOp> {
    let rel = prop_oneof![Just("r"), Just("s")];
    prop_oneof![
        (rel.clone(), 0i64..4, 0i64..4).prop_map(|(t, a, b)| WsdOp::PushOrSet(t, a, b)),
        (rel.clone(), 0i64..4, 0i64..4).prop_map(|(t, a, b)| WsdOp::PushCertain(t, a, b)),
        (rel.clone(), 0i64..4).prop_map(|(t, k)| WsdOp::Delete(t, k)),
        (rel.clone(), 0i64..4, 0i64..4).prop_map(|(t, k, v)| WsdOp::Update(t, k, v)),
        rel.clone().prop_map(WsdOp::RepairKey),
        (0usize..8, 0usize..8).prop_map(|(i, j)| WsdOp::Merge(i, j)),
        (0usize..8).prop_map(WsdOp::Alias),
        Just(WsdOp::Normalize),
        Just(WsdOp::Compact),
        rel.clone().prop_map(WsdOp::Remove),
        Just(WsdOp::Rename("r", "s")),
        Just(WsdOp::Rename("s", "r")),
    ]
}

/// Applies one script step; `Err` when the step is invalid at this point
/// (an unknown relation, an unsatisfiable repair, …).
fn apply_wsd_op(w: &mut Wsd, op: &WsdOp) -> maybms_relational::Result<()> {
    use maybms_core::algebra::{delete_op, update_op};
    use maybms_core::field::Field;
    let a_is = |k: i64| Expr::col("a").eq(Expr::lit(k));
    match op {
        WsdOp::PushOrSet(t, a, b) => {
            let alternatives = vec![(Value::Int(*b), 0.25), (Value::Int(b + 1), 0.75)];
            let cell = OrSetCell::weighted(alternatives)?;
            w.push_orset(t, vec![OrSetCell::certain(*a), cell]).map(drop)
        }
        WsdOp::PushCertain(t, a, b) => {
            w.push_certain(t, vec![Value::Int(*a), Value::Int(*b)]).map(drop)
        }
        WsdOp::Delete(t, k) => delete_op(w, t, Some(&a_is(*k))).map(drop),
        WsdOp::Update(t, k, v) => {
            update_op(w, t, &[("b".into(), Value::Int(*v))], Some(&a_is(*k))).map(drop)
        }
        WsdOp::RepairKey(t) => clean(w, &[Constraint::key(t, &["a"])]).map(drop),
        WsdOp::Merge(i, j) => {
            let live = w.live_components();
            if live.is_empty() {
                return Ok(());
            }
            w.merge_components(&[live[i % live.len()], live[j % live.len()]]).map(drop)
        }
        WsdOp::Alias(i) => {
            let open: Vec<Field> = w
                .relation("r")?
                .tuples
                .iter()
                .flat_map(|t| (0..2u32).map(move |p| Field::attr(t.tid, p)))
                .filter(|&f| w.field_loc(f).is_some())
                .collect();
            if let Some(&f) = open.get(i % open.len().max(1)) {
                let loc = w.field_loc(f).expect("filtered to mapped fields");
                let tid = w.fresh_tid();
                w.alias_field(Field::attr(tid, 0), loc);
                let cells = vec![TemplateCell::Open, TemplateCell::Certain(Value::Int(0))];
                let exists = Existence::Always;
                w.push_template("r", TupleTemplate { tid, cells: cells.into(), exists })?;
            }
            Ok(())
        }
        WsdOp::Normalize => {
            normalize(w);
            Ok(())
        }
        WsdOp::Compact => {
            w.compact();
            Ok(())
        }
        WsdOp::Remove(t) => w.remove_relation(t),
        WsdOp::Rename(from, to) => w.rename_relation(from, *to),
    }
}

/// Plans `q` with `plan`, compiles it and runs it at worker counts 1, 2
/// and 4. Each answer's world-set must equal evaluating the raw `q` in
/// every enumerated world of `wsd`, the answers must be byte-identical
/// under the codec across worker counts (this is what exercises
/// `join_op_in`'s pooled probe), and a query per-world evaluation
/// rejects must be rejected at plan or execution time, and only then.
fn check_executor_against_worlds(
    wsd: &Wsd,
    q: &Query,
    mut plan: impl FnMut(&Query) -> maybms_relational::Result<Query>,
) -> Result<(), TestCaseError> {
    let worlds = wsd.to_worldset(1 << 16).expect("enumerate input");
    let per_world = eval_in_all_worlds(&worlds, q);
    let mut first_bytes: Option<Vec<u8>> = None;
    for workers in [1usize, 2, 4] {
        let pool = WorkerPool::new(workers);
        let answer = plan(q)
            .and_then(|planned| compile(&planned, wsd))
            .and_then(|plan| Executor::new(&pool).run(&plan, wsd));
        match (&per_world, answer) {
            (Ok(expected), Ok(got)) => {
                got.validate().expect("valid result");
                let got_worlds = got.to_worldset(1 << 16).expect("enumerate result");
                prop_assert!(
                    got_worlds.equivalent(expected, 1e-9),
                    "executor diverged from per-world evaluation at {workers} workers"
                );
                let bytes = encode_wsd(&got);
                let first = first_bytes.get_or_insert_with(|| bytes.clone());
                prop_assert!(*first == bytes, "answer bytes at {workers} workers differ from 1 worker");
            }
            (Err(_), Err(_)) => {} // both reject: agreement
            (Ok(_), Err(e)) => {
                return Err(TestCaseError(format!(
                    "executor rejected a query per-world evaluation accepts: {e}"
                )))
            }
            (Err(e), Ok(_)) => {
                return Err(TestCaseError(format!(
                    "executor accepted a query per-world evaluation rejects: {e}"
                )))
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// worlds(Q(wsd)) == { Q(w) | w ∈ worlds(wsd) }, with probabilities.
    /// The random query generator can produce ill-typed queries (e.g. a
    /// selection on a projected-away column); both engines must then agree
    /// on rejecting them.
    #[test]
    fn queries_commute_with_world_enumeration(wsd in arb_wsd(), q in arb_query()) {
        let worlds = wsd.to_worldset(1 << 16).expect("enumerate input");
        let rhs = eval_in_all_worlds(&worlds, &q);
        match eval(&q, &wsd) {
            Ok(on_wsd) => {
                on_wsd.validate().expect("valid result");
                let lhs = on_wsd.to_worldset(1 << 16).expect("enumerate result");
                let rhs = rhs.expect("oracle must accept what the WSD engine accepts");
                prop_assert!(lhs.equivalent(&rhs, 1e-9));
            }
            Err(_) => prop_assert!(rhs.is_err(), "WSD engine rejected a query the oracle accepts"),
        }
    }

    /// Normalization (with factorization) never changes the world-set.
    #[test]
    fn normalization_preserves_semantics(wsd in arb_wsd()) {
        let before = wsd.to_worldset(1 << 16).expect("enumerate");
        let mut n = wsd.clone();
        normalize(&mut n);
        n.validate().expect("valid");
        prop_assert!(before.equivalent(&n.to_worldset(1 << 16).expect("enumerate"), 1e-9));
        let mut f = wsd.clone();
        normalize_full(&mut f);
        f.validate().expect("valid");
        prop_assert!(before.equivalent(&f.to_worldset(1 << 16).expect("enumerate"), 1e-9));
    }

    /// A clone shares its relations and components with the original,
    /// and neither observes the other's writes: a random mutation script
    /// applied to `b = a.clone()` leaves `a` byte-identical under the
    /// codec, and leaves `b` byte-identical to the same script applied to
    /// a deep copy rebuilt from `a`'s bytes (which shares nothing).
    #[test]
    fn clones_are_isolated_under_sharing(
        wsd in arb_wsd(),
        script in prop::collection::vec(arb_wsd_op(), 1..12),
    ) {
        let mut a = wsd;
        a.add_relation("s", Schema::new(vec![("a", ColumnType::Int), ("b", ColumnType::Int)]))
            .expect("fresh");
        apply_wsd_op(&mut a, &WsdOp::PushOrSet("s", 1, 2)).expect("seed s");
        let before = encode_wsd(&a);
        let mut b = a.clone();
        let mut deep = decode_wsd(&before).expect("decode");
        for op in &script {
            let (on_clone, on_deep) = (apply_wsd_op(&mut b, op), apply_wsd_op(&mut deep, op));
            prop_assert_eq!(on_clone.is_ok(), on_deep.is_ok(), "{:?} diverged", op);
        }
        prop_assert!(encode_wsd(&a) == before, "a write to the clone leaked into the original");
        prop_assert!(encode_wsd(&b) == encode_wsd(&deep), "the clone diverged from a deep copy");
        b.validate().expect("valid clone");
    }

    /// Exact decomposition round-trips: worlds(from_worldset(W)) == W.
    #[test]
    fn decomposition_round_trip(wsd in arb_wsd()) {
        let ws = wsd.to_worldset(1 << 16).expect("enumerate");
        let rebuilt = from_worldset(&ws).expect("decompose");
        rebuilt.validate().expect("valid");
        let back = rebuilt.to_worldset(1 << 16).expect("enumerate rebuilt");
        prop_assert!(ws.equivalent(&back, 1e-9));
    }

    /// Confidence computed on the decomposition equals brute force.
    #[test]
    fn confidence_matches_brute_force(wsd in arb_wsd()) {
        let fast = wsd.tuple_confidence("r").expect("confidence");
        let slow = wsd.to_worldset(1 << 16).expect("enumerate").tuple_confidence("r");
        prop_assert_eq!(fast.len(), slow.len());
        for ((t1, p1), (t2, p2)) in fast.iter().zip(&slow) {
            prop_assert_eq!(t1, t2);
            prop_assert!((p1 - p2).abs() < 1e-9);
        }
    }

    /// Chase-based cleaning equals world-level filtering + renormalization.
    #[test]
    fn cleaning_matches_world_filtering(wsd in arb_wsd(), key_b in any::<bool>()) {
        let constraints = if key_b {
            vec![Constraint::fd("r", &["a"], &["b"])]
        } else {
            vec![Constraint::tuple_check(
                "r",
                Expr::col("a").le(Expr::lit(2i64)),
            )]
        };
        let before = wsd.to_worldset(1 << 16).expect("enumerate");
        let consistent = before.filter(|w| {
            for c in &constraints {
                if !c.holds_in(w)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }).expect("filter");

        let mut cleaned = wsd.clone();
        match clean(&mut cleaned, &constraints) {
            Ok(_) => {
                cleaned.validate().expect("valid");
                let lhs = cleaned.to_worldset(1 << 16).expect("enumerate cleaned");
                prop_assert!(lhs.equivalent(&consistent, 1e-9));
            }
            Err(_) => {
                // cleaning may only fail when no world is consistent
                prop_assert!(consistent.is_empty());
            }
        }
    }

    /// Expected aggregates on the decomposition equal brute force.
    #[test]
    fn expected_aggregates_match_brute_force(wsd in arb_wsd()) {
        let ws = wsd.to_worldset(1 << 16).expect("enumerate");
        let ec = prob::expected_count_in(&wsd, "r", WorkerPool::sequential()).expect("ecount");
        prop_assert!((ec - ws.expected_count("r")).abs() < 1e-9);
        let es = prob::expected_sum_in(&wsd, "r", "a", WorkerPool::sequential()).expect("esum");
        prop_assert!((es - ws.expected_sum("r", 0)).abs() < 1e-9);
    }

    /// Every world-mode answer on a random query's answer decomposition
    /// agrees with world enumeration: `POSSIBLE`, `CERTAIN`, `PROB()`,
    /// non-emptiness and both expected aggregates on every column.
    /// Projections and unions (`r ∪ r` included) give templates that
    /// share a whole value, the case the expected aggregates must send
    /// through the accumulator.
    #[test]
    fn world_modes_match_enumeration(wsd in arb_wsd(), q in arb_query()) {
        let Ok(ans) = eval(&q, &wsd) else { return Ok(()) };
        let ws = ans.to_worldset(1 << 16).expect("enumerate answer");
        let pool = WorkerPool::sequential();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        let possible = prob::possible_tuples_in(&ans, "result", pool).expect("possible");
        prop_assert_eq!(possible, ws.possible_tuples("result"));
        let certain = prob::certain_tuples_in(&ans, "result", pool).expect("certain");
        prop_assert_eq!(certain, ws.certain_tuples("result"));
        let fast = prob::tuple_confidence_in(&ans, "result", pool).expect("confidence");
        let slow = ws.tuple_confidence("result");
        prop_assert_eq!(fast.len(), slow.len());
        for ((t1, p1), (t2, p2)) in fast.iter().zip(&slow) {
            prop_assert_eq!(t1, t2);
            prop_assert!(close(*p1, *p2), "P({:?}) = {} vs {}", t1, p1, p2);
        }
        let p = prob::nonempty_confidence_in(&ans, "result", pool).expect("nonempty");
        prop_assert!(close(p, ws.nonempty_confidence("result")));
        let ec = prob::expected_count_in(&ans, "result", pool).expect("ecount");
        let slow_ec = ws.expected_count("result");
        prop_assert!(close(ec, slow_ec), "{} vs {}", ec, slow_ec);
        let schema = ans.relation("result").expect("answer").schema.clone();
        for (i, col) in schema.names().into_iter().enumerate() {
            let es = prob::expected_sum_in(&ans, "result", col, pool).expect("esum");
            let slow_es = ws.expected_sum("result", i);
            prop_assert!(close(es, slow_es), "{}: {} vs {}", col, es, slow_es);
        }
    }

    /// World counts: the decomposition's combinatorial count and its
    /// logarithm match the number of enumerated worlds.
    #[test]
    fn world_count_matches_enumeration(wsd in arb_wsd()) {
        let count = wsd.world_count();
        let ws = wsd.to_worldset(1 << 16).expect("enumerate");
        prop_assert_eq!(count.to_u64().expect("small") as usize, ws.len());
        let log10 = (ws.len() as f64).log10();
        prop_assert!((count.log10() - log10).abs() < 1e-9, "{} vs {}", count.log10(), log10);
    }

    /// The hash-partitioned equi-join is world-equivalent to the
    /// nested-loop reference on randomized inputs, for pure equality and
    /// for mixed equality+residual predicates (including self-joins, where
    /// correlations must be preserved identically by both paths).
    #[test]
    fn hash_join_equals_nested_loop(wsd in arb_wsd(), residual in any::<bool>(), v in 0i64..4) {
        // self-join r ⋈ r on x.a = y.b (optionally plus a residual conjunct)
        let mut base = wsd.clone();
        let lhs_name = "xq";
        let rhs_name = "yq";
        maybms_core::algebra::qualify_op(&mut base, "r", "x", lhs_name).expect("qualify x");
        maybms_core::algebra::qualify_op(&mut base, "r", "y", rhs_name).expect("qualify y");
        let pred = if residual {
            Expr::col("x.a").eq(Expr::col("y.b")).and(Expr::col("x.b").ne(Expr::lit(v)))
        } else {
            Expr::col("x.a").eq(Expr::col("y.b"))
        };

        let seq = WorkerPool::sequential();
        let mut hashed = base.clone();
        join_op_in(&mut hashed, lhs_name, rhs_name, &pred, "out", seq).expect("hash join");
        let hashed = extract(hashed, "out", "result").expect("extract");
        hashed.validate().expect("valid hash result");

        let mut nested = base.clone();
        join_op_nested(&mut nested, lhs_name, rhs_name, &pred, "out").expect("nested join");
        let nested = extract(nested, "out", "result").expect("extract");
        nested.validate().expect("valid nested result");

        let a = hashed.to_worldset(1 << 16).expect("enumerate hash");
        let b = nested.to_worldset(1 << 16).expect("enumerate nested");
        prop_assert!(a.equivalent(&b, 1e-9), "hash join diverged from nested loop");
    }

    /// The executor answers random queries on random WSDs exactly as
    /// per-world evaluation does, at every worker count (1 = inline, 2
    /// and 4 = threaded): compile the raw logical tree, run it on a pool
    /// of each size. See [`check_executor_against_worlds`].
    #[test]
    fn executor_matches_world_enumeration(wsd in arb_wsd(), q in arb_query()) {
        check_executor_against_worlds(&wsd, &q, |q| Ok(q.clone()))?;
    }

    /// The cost-based optimizer (join reorder + predicate sinking, fed by
    /// a [`maybms_core::stats::WsdStats`] collector) composed with the
    /// executor answers as per-world evaluation of the *raw* query does,
    /// at worker counts 1/2/4: plan choice may change the evaluation
    /// order but never the answer world-set.
    #[test]
    fn optimized_executor_matches_world_enumeration(wsd in arb_wsd(), q in arb_query()) {
        let mut stats = maybms_core::stats::WsdStats::new();
        check_executor_against_worlds(&wsd, &q, |q| {
            maybms_sql::optimizer::optimize_with_stats(q, &wsd, &mut stats)
        })?;
    }

    /// Incremental (dirty-set) normalization is world-equivalent to the
    /// full-pass reference after arbitrary queries: `exec::eval` runs the
    /// incremental path internally; re-normalizing its result from scratch
    /// must change nothing.
    #[test]
    fn incremental_normalize_equals_full_pass(wsd in arb_wsd(), q in arb_query()) {
        if let Ok(result) = eval(&q, &wsd) {
            // eval's output was incrementally normalized; a full pass on a
            // copy must be a no-op up to world-set equivalence
            let mut full = result.clone();
            normalize_from_scratch(&mut full);
            full.validate().expect("valid after full pass");
            let a = result.to_worldset(1 << 16).expect("enumerate incremental");
            let b = full.to_worldset(1 << 16).expect("enumerate full");
            prop_assert!(a.equivalent(&b, 1e-9), "incremental normalize left semantic residue");
            // and the full pass finds nothing left to shrink
            prop_assert_eq!(result.stats(), full.stats());
        }
    }

    /// Snapshot codec round trip: save → load yields a decomposition that
    /// passes validation, answers queries **bit-identically** (same
    /// tuples, same confidence bits), and re-encodes to the same bytes.
    #[test]
    fn snapshot_round_trip_is_lossless(wsd in arb_wsd(), q in arb_query()) {
        let bytes = encode_wsd(&wsd);
        let back = decode_wsd(&bytes).expect("snapshot payload must decode");
        back.validate().expect("decoded WSD must validate");
        prop_assert_eq!(
            bytes,
            encode_wsd(&back),
            "re-encoding a decoded WSD must reproduce the same bytes"
        );
        match (eval(&q, &wsd), eval(&q, &back)) {
            (Ok(a), Ok(b)) => {
                let ca = a.tuple_confidence("result").expect("confidence original");
                let cb = b.tuple_confidence("result").expect("confidence decoded");
                prop_assert_eq!(ca.len(), cb.len());
                for ((t1, p1), (t2, p2)) in ca.iter().zip(&cb) {
                    prop_assert_eq!(t1, t2, "answer tuples diverged after round trip");
                    prop_assert_eq!(
                        p1.to_bits(), p2.to_bits(),
                        "confidence bits diverged after round trip: {} vs {}", p1, p2
                    );
                }
            }
            (Err(_), Err(_)) => {} // both reject the (possibly ill-typed) query
            (a, b) => {
                return Err(TestCaseError(format!(
                    "round trip changed query acceptance: original ok={}, decoded ok={}",
                    a.is_ok(), b.is_ok()
                )))
            }
        }
    }

    /// WAL replay equals the in-memory session: apply a random mutation
    /// sequence to a plain session and to a durable one (checkpointing at
    /// a random position), kill the durable session without a final
    /// checkpoint, reopen, and require the recovered decomposition to be
    /// byte-identical to the in-memory one under the snapshot codec.
    #[test]
    fn wal_replay_matches_in_memory_session(
        stmts in prop::collection::vec(arb_mutation(), 1..10),
        ckpt_at in 0usize..10,
    ) {
        use maybms_sql::Session;
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "maybms-oracle-wal-{}-{}.maybms",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let wal = maybms_storage::wal_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);

        let mut mem = Session::new();
        let mut durable = Session::open(&path).expect("open durable session");
        mem.execute("CREATE TABLE r (a INT, b INT)").expect("create");
        durable.execute("CREATE TABLE r (a INT, b INT)").expect("create durable");
        for (i, stmt) in stmts.iter().enumerate() {
            // dry-run on a clone: a statement that is invalid at this
            // position (or an unsatisfiable repair) is skipped on both
            // sides, without assuming failures leave no partial state
            if mem.clone().execute(stmt).is_err() {
                continue;
            }
            mem.execute(stmt).expect("in-memory apply");
            durable.execute(stmt).expect("durable apply");
            if i == ckpt_at {
                durable.execute("CHECKPOINT").expect("checkpoint");
            }
        }
        drop(durable); // the kill: no final checkpoint
        let recovered = Session::open(&path).expect("recovery");
        let lhs = encode_wsd(mem.wsd());
        let rhs = encode_wsd(recovered.wsd());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
        prop_assert!(
            lhs == rhs,
            "recovered decomposition differs from the in-memory session \
             ({} vs {} encoded bytes)", lhs.len(), rhs.len()
        );
    }

    /// Transactional WAL replay equals the in-memory session: run a random
    /// script with interleaved BEGIN/COMMIT/ROLLBACK on a plain and a
    /// durable session, kill the durable one at a random point (possibly
    /// mid-transaction), reopen, and require the recovered decomposition
    /// to be byte-identical to the in-memory session — where "in-memory"
    /// rolls back its open transaction too, because recovery replays only
    /// complete commit groups, never a partial transaction.
    #[test]
    fn transactional_wal_replay_matches_in_memory_session(
        ops in prop::collection::vec(arb_txn_op(), 1..12),
        kill_at in 0usize..12,
        ckpt_at in 0usize..12,
    ) {
        use maybms_sql::Session;
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "maybms-oracle-txn-{}-{}.maybms",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let wal = maybms_storage::wal_path_for(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);

        let mut mem = Session::new();
        let mut durable = Session::open(&path).expect("open durable session");
        mem.execute("CREATE TABLE r (a INT, b INT)").expect("create");
        durable.execute("CREATE TABLE r (a INT, b INT)").expect("create durable");
        for (i, op) in ops.iter().enumerate() {
            if i == kill_at {
                break; // the random kill point — possibly mid-transaction
            }
            match op {
                TxnOp::Begin if !mem.in_transaction() => {
                    mem.execute("BEGIN").expect("begin");
                    durable.execute("BEGIN").expect("begin durable");
                }
                TxnOp::Commit if mem.in_transaction() => {
                    mem.execute("COMMIT").expect("commit");
                    durable.execute("COMMIT").expect("commit durable");
                }
                TxnOp::Rollback if mem.in_transaction() => {
                    mem.execute("ROLLBACK").expect("rollback");
                    durable.execute("ROLLBACK").expect("rollback durable");
                }
                TxnOp::Begin | TxnOp::Commit | TxnOp::Rollback => {} // invalid here: skip
                TxnOp::Stmt(stmt) => {
                    // dry-run on a clone (which carries any open
                    // transaction): statements invalid at this position are
                    // skipped on both sides
                    if mem.clone().execute(stmt).is_err() {
                        continue;
                    }
                    mem.execute(stmt).expect("in-memory apply");
                    durable.execute(stmt).expect("durable apply");
                }
            }
            if i == ckpt_at && !mem.in_transaction() {
                durable.execute("CHECKPOINT").expect("checkpoint");
            }
        }
        // the kill: anything uncommitted must not survive recovery, so the
        // in-memory reference rolls its open transaction back too
        if mem.in_transaction() {
            mem.execute("ROLLBACK").expect("reference rollback");
        }
        drop(durable);
        let recovered = Session::open(&path).expect("recovery");
        let lhs = encode_wsd(mem.wsd());
        let rhs = encode_wsd(recovered.wsd());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&wal);
        prop_assert!(
            lhs == rhs,
            "recovered decomposition differs from the rolled-back in-memory session \
             ({} vs {} encoded bytes)", lhs.len(), rhs.len()
        );
    }

    /// DELETE/UPDATE world semantics: the decomposition operators must
    /// equal the enumerate-all-worlds reference (apply the statement
    /// per world, keep each world's probability untouched), at worker
    /// counts 1/2/4.
    #[test]
    fn delete_update_world_semantics(
        wsd in arb_wsd(),
        is_delete in any::<bool>(),
        on_a in any::<bool>(),
        eq_pred in any::<bool>(),
        k in 0i64..4,
        v in 0i64..4,
    ) {
        use maybms_sql::Session;
        use maybms_worldset::WorldSet;

        let col = if on_a { "a" } else { "b" };
        let op = if eq_pred { "=" } else { ">" };
        let sql = if is_delete {
            format!("DELETE FROM r WHERE {col} {op} {k}")
        } else {
            format!("UPDATE r SET a = {v} WHERE {col} {op} {k}")
        };

        // the reference: apply the statement in every enumerated world
        let before = wsd.to_worldset(1 << 16).expect("enumerate input");
        let mut reference = WorldSet::default();
        for (w, p) in before.worlds() {
            let mut w = w.clone();
            let r = w.get("r").expect("relation r").clone();
            let ci = r.schema().index_of(col).expect("column");
            let matches = |t: &maybms_relational::Tuple| {
                let x = t[ci].as_i64().expect("int column");
                if eq_pred { x == k } else { x > k }
            };
            let rows: Vec<maybms_relational::Tuple> = if is_delete {
                r.rows().iter().filter(|t| !matches(t)).cloned().collect()
            } else {
                r.rows()
                    .iter()
                    .map(|t| {
                        if !matches(t) {
                            return t.clone();
                        }
                        let mut vals = t.values().to_vec();
                        vals[0] = Value::Int(v);
                        maybms_relational::Tuple::new(vals)
                    })
                    .collect()
            };
            w.put(
                "r".to_string(),
                maybms_relational::Relation::from_rows_unchecked(r.schema().clone(), rows),
            );
            reference.push(w, *p);
        }

        for workers in [1usize, 2, 4] {
            let mut s = Session::with_wsd(wsd.clone())
                .with_worker_pool(std::sync::Arc::new(WorkerPool::new(workers)));
            s.execute(&sql).expect("dml");
            s.wsd().validate().expect("valid after dml");
            let got = s.wsd().to_worldset(1 << 16).expect("enumerate result");
            prop_assert!(
                got.equivalent(&reference, 1e-9),
                "{sql} diverged from the all-worlds reference at {workers} workers"
            );
        }
    }
}
