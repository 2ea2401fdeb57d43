//! Property tests for the expression evaluator: three-valued logic laws,
//! binding totality, comparison coherence with the value order, and one
//! predicate semantics for `eval` and `eval_predicate`.

use proptest::prelude::*;

use maybms_relational::{BinOp, BoundExpr, CmpOp, ColumnType, Expr, Schema, Tuple, Value};

#[allow(dead_code)]
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-50i64..50).prop_map(Value::Int),
        (-50i64..50).prop_map(|i| Value::Float(i as f64 / 2.0)),
        "[a-c]{0,3}".prop_map(Value::str),
    ]
}

fn schema() -> Schema {
    Schema::new(vec![
        ("i", ColumnType::Int),
        ("f", ColumnType::Float),
        ("s", ColumnType::Str),
        ("b", ColumnType::Bool),
    ])
}

fn arb_row() -> impl Strategy<Value = Tuple> {
    (
        prop_oneof![Just(Value::Null), (-20i64..20).prop_map(Value::Int)],
        prop_oneof![Just(Value::Null), (-20i64..20).prop_map(|i| Value::Float(i as f64))],
        prop_oneof![Just(Value::Null), "[a-c]{0,2}".prop_map(Value::str)],
        prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)],
    )
        .prop_map(|(i, f, s, b)| Tuple::new(vec![i, f, s, b]))
}

/// Random predicates over the fixed schema.
fn arb_pred() -> impl Strategy<Value = Expr> {
    let atom = prop_oneof![
        (-20i64..20).prop_map(|v| Expr::col("i").eq(Expr::lit(v))),
        (-20i64..20).prop_map(|v| Expr::col("i").lt(Expr::lit(v))),
        (-20i64..20).prop_map(|v| Expr::col("f").ge(Expr::lit(v as f64))),
        "[a-c]{0,2}".prop_map(|v| Expr::col("s").eq(Expr::lit(Value::str(v)))),
        Just(Expr::col("b").eq(Expr::lit(true))),
        Just(Expr::col("i").is_null()),
        Just(Expr::col("s").is_null()),
    ];
    atom.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
        ]
    })
}

/// `12 / i = v`: fails where `i` is 0.
fn div_atom() -> impl Strategy<Value = Expr> {
    (-3i64..3).prop_map(|v| {
        let div = Expr::Bin(BinOp::Div, Box::new(Expr::lit(12i64)), Box::new(Expr::col("i")));
        div.eq(Expr::lit(v))
    })
}

/// [`arb_pred`] with division atoms, bare (they may fail) and guarded
/// (`i <> 0 AND 12 / i = v`).
fn arb_pred_div() -> impl Strategy<Value = Expr> {
    let guarded = div_atom().prop_map(|d| Expr::col("i").ne(Expr::lit(0i64)).and(d));
    let leaf = prop_oneof![arb_pred(), div_atom(), guarded];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.clone().prop_map(|a| a.not()),
        ]
    })
}

/// [`arb_row`], or a row of NULLs.
fn arb_row_or_nulls() -> impl Strategy<Value = Tuple> {
    prop_oneof![arb_row(), Just(Tuple::new(vec![Value::Null; 4]))]
}

fn eval(e: &Expr, t: &Tuple) -> Option<bool> {
    let b: BoundExpr = e.bind(&schema()).expect("bind against fixed schema");
    b.eval(t).expect("no arithmetic in predicates").as_bool()
}

proptest! {
    /// Double negation is the identity in Kleene logic.
    #[test]
    fn double_negation(e in arb_pred(), t in arb_row()) {
        prop_assert_eq!(eval(&e, &t), eval(&e.clone().not().not(), &t));
    }

    /// De Morgan's laws hold under three-valued logic.
    #[test]
    fn de_morgan(a in arb_pred(), b in arb_pred(), t in arb_row()) {
        let lhs = eval(&a.clone().and(b.clone()).not(), &t);
        let rhs = eval(&a.clone().not().or(b.clone().not()), &t);
        prop_assert_eq!(lhs, rhs);
        let lhs2 = eval(&a.clone().or(b.clone()).not(), &t);
        let rhs2 = eval(&a.not().and(b.not()), &t);
        prop_assert_eq!(lhs2, rhs2);
    }

    /// AND/OR are commutative.
    #[test]
    fn commutativity(a in arb_pred(), b in arb_pred(), t in arb_row()) {
        prop_assert_eq!(
            eval(&a.clone().and(b.clone()), &t),
            eval(&b.clone().and(a.clone()), &t)
        );
        prop_assert_eq!(eval(&a.clone().or(b.clone()), &t), eval(&b.or(a), &t));
    }

    /// eval_predicate is eval with unknown collapsed to false.
    #[test]
    fn predicate_view(e in arb_pred(), t in arb_row()) {
        let b = e.bind(&schema()).expect("bind");
        let full = b.eval(&t).expect("eval").as_bool();
        let pred = b.eval_predicate(&t).expect("eval");
        prop_assert_eq!(pred, full.unwrap_or(false));
    }

    /// `eval_predicate` is `eval` with unknown read as false, errors
    /// included: one three-valued semantics.
    #[test]
    fn one_predicate_semantics(e in arb_pred_div(), t in arb_row_or_nulls()) {
        let b = e.bind(&schema()).expect("bind");
        let via_eval = b.eval(&t).map(|v| v.as_bool().unwrap_or(false));
        prop_assert_eq!(b.eval_predicate(&t), via_eval);
    }

    /// A decided left operand skips the right one: `false AND err` is
    /// false and `true OR err` is true, in both evaluators.
    #[test]
    fn connectives_skip_decided_right(e in arb_pred_div(), t in arb_row_or_nulls()) {
        let fails = Expr::Bin(BinOp::Div, Box::new(Expr::lit(1i64)), Box::new(Expr::lit(0i64)))
            .eq(Expr::lit(1i64));
        let Ok(Some(left)) = e.bind(&schema()).expect("bind").eval(&t).map(|v| v.as_bool()) else {
            return Ok(());
        };
        let skipped = if left { e.or(fails) } else { e.and(fails) };
        let b = skipped.bind(&schema()).expect("bind");
        prop_assert_eq!(b.eval(&t), Ok(Value::Bool(left)));
        prop_assert_eq!(b.eval_predicate(&t), Ok(left));
    }

    /// Comparisons agree with the total value order on non-NULL values.
    #[test]
    fn cmp_coherence(x in -50i64..50, y in -50i64..50) {
        let (vx, vy) = (Value::Int(x), Value::Int(y));
        prop_assert_eq!(CmpOp::Lt.apply(&vx, &vy), Some(x < y));
        prop_assert_eq!(CmpOp::Eq.apply(&vx, &vy), Some(x == y));
        prop_assert_eq!(CmpOp::Ge.apply(&vx, &vy), Some(x >= y));
        // int/float coherence
        prop_assert_eq!(
            CmpOp::Eq.apply(&Value::Int(x), &Value::Float(x as f64)),
            Some(true)
        );
    }

    /// Conjunct splitting and rebuilding is semantics-preserving.
    #[test]
    fn conjoin_round_trip(a in arb_pred(), b in arb_pred(), c in arb_pred(), t in arb_row()) {
        let e = a.and(b).and(c);
        let rebuilt = Expr::conjoin(e.conjuncts().into_iter().cloned().collect());
        prop_assert_eq!(eval(&e, &t), eval(&rebuilt, &t));
    }
}
