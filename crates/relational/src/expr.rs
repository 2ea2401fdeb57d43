//! The expression language: comparisons, boolean connectives, arithmetic.
//!
//! Expressions are built by name ([`Expr`]), then *bound* against a schema
//! ([`Expr::bind`]) which resolves column references to positions. Bound
//! expressions evaluate against tuples with SQL three-valued logic
//! (NULL-aware comparisons).

use std::borrow::Cow;
use std::fmt;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluates under three-valued logic (`None` = unknown).
    pub fn apply(self, a: &Value, b: &Value) -> Option<bool> {
        let ord = a.sql_cmp(b)?;
        Some(match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        })
    }

    /// The operator with arguments swapped (`a op b == b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

/// Aggregate functions for GROUP BY evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        };
        write!(f, "{s}")
    }
}

/// An unbound (name-based) expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on two sub-expressions.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// `expr IS NULL`
    IsNull(Box<Expr>),
    /// `expr IN (v1, v2, ...)`
    InList(Box<Expr>, Vec<Value>),
    /// A `?` placeholder of a prepared statement, by 0-based position.
    /// Must be substituted ([`Expr::with_params`]) before binding.
    Param(u32),
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    pub fn in_list(self, vals: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), vals)
    }

    /// Resolves column names to positions against `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(n) => BoundExpr::Col(schema.index_of(n)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                BoundExpr::Cmp(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::Bin(op, a, b) => {
                BoundExpr::Bin(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::And(a, b) => {
                BoundExpr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::Or(a, b) => BoundExpr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(schema)?)),
            Expr::IsNull(a) => BoundExpr::IsNull(Box::new(a.bind(schema)?)),
            Expr::InList(a, vs) => BoundExpr::InList(Box::new(a.bind(schema)?), vs.clone()),
            Expr::Param(i) => {
                return Err(Error::InvalidExpr(format!(
                    "unbound parameter ?{} (bind prepared-statement parameters first)",
                    i + 1
                )))
            }
        })
    }

    /// Substitutes every `?` placeholder with the value at its position,
    /// returning the closed expression. Fails on an out-of-range index.
    pub fn with_params(&self, params: &[Value]) -> Result<Expr> {
        Ok(match self {
            Expr::Param(i) => {
                let v = params.get(*i as usize).ok_or_else(|| {
                    Error::InvalidExpr(format!(
                        "parameter ?{} has no bound value ({} supplied)",
                        i + 1,
                        params.len()
                    ))
                })?;
                Expr::Lit(v.clone())
            }
            Expr::Col(_) | Expr::Lit(_) => self.clone(),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.with_params(params)?),
                Box::new(b.with_params(params)?),
            ),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.with_params(params)?),
                Box::new(b.with_params(params)?),
            ),
            Expr::And(a, b) => {
                Expr::And(Box::new(a.with_params(params)?), Box::new(b.with_params(params)?))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(a.with_params(params)?), Box::new(b.with_params(params)?))
            }
            Expr::Not(a) => Expr::Not(Box::new(a.with_params(params)?)),
            Expr::IsNull(a) => Expr::IsNull(Box::new(a.with_params(params)?)),
            Expr::InList(a, vs) => Expr::InList(Box::new(a.with_params(params)?), vs.clone()),
        })
    }

    /// The number of parameter slots referenced (`max index + 1`; 0 when
    /// the expression is closed).
    pub fn param_count(&self) -> u32 {
        match self {
            Expr::Param(i) => i + 1,
            Expr::Col(_) | Expr::Lit(_) => 0,
            Expr::Cmp(_, a, b) | Expr::Bin(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.param_count().max(b.param_count())
            }
            Expr::Not(a) | Expr::IsNull(a) => a.param_count(),
            Expr::InList(a, _) => a.param_count(),
        }
    }

    /// All column names referenced in the expression (with duplicates
    /// removed, in first-occurrence order). The WSD selection operator uses
    /// this to find the components a predicate touches.
    pub fn columns(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Col(n) => {
                if !out.contains(&n.as_str()) {
                    out.push(n);
                }
            }
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Cmp(_, a, b) | Expr::Bin(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) | Expr::IsNull(a) => a.collect_columns(out),
            Expr::InList(a, _) => a.collect_columns(out),
        }
    }

    /// Splits a conjunction into its conjuncts (`a AND b AND c` → `[a,b,c]`);
    /// non-conjunctions return themselves. Used by the optimizer for
    /// predicate pushdown.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::And(a, b) = e {
                walk(a, out);
                walk(b, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }

    /// Rebuilds a conjunction from conjuncts; empty input yields `TRUE`.
    pub fn conjoin(mut parts: Vec<Expr>) -> Expr {
        match parts.len() {
            0 => Expr::Lit(Value::Bool(true)),
            1 => parts.pop().expect("len checked"),
            _ => {
                let mut it = parts.into_iter();
                let first = it.next().expect("len checked");
                it.fold(first, |acc, e| acc.and(e))
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::Lit(Value::Str(s)) => write!(f, "'{s}'"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::IsNull(a) => write!(f, "({a} IS NULL)"),
            Expr::InList(a, vs) => {
                write!(f, "({a} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match v {
                        Value::Str(s) => write!(f, "'{s}'")?,
                        v => write!(f, "{v}")?,
                    }
                }
                write!(f, "))")
            }
            Expr::Param(i) => write!(f, "?{}", i + 1),
        }
    }
}

/// An expression with column references resolved to tuple positions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    Bin(BinOp, Box<BoundExpr>, Box<BoundExpr>),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    InList(Box<BoundExpr>, Vec<Value>),
}

impl BoundExpr {
    /// Evaluates to a value: a boolean node is its [`BoundExpr::truth`],
    /// unknown as NULL.
    pub fn eval(&self, t: &Tuple) -> Result<Value> {
        Ok(match self {
            BoundExpr::Col(_) | BoundExpr::Lit(_) => self.operand(t)?.into_owned(),
            BoundExpr::Bin(op, a, b) => eval_arith(*op, &*a.operand(t)?, &*b.operand(t)?)?,
            BoundExpr::Cmp(..)
            | BoundExpr::And(..)
            | BoundExpr::Or(..)
            | BoundExpr::Not(_)
            | BoundExpr::IsNull(_)
            | BoundExpr::InList(..) => self.truth(t)?.map_or(Value::Null, Value::Bool),
        })
    }

    /// Evaluates as a predicate: unknown (NULL) counts as false, as in a
    /// SQL WHERE clause.
    pub fn eval_predicate(&self, t: &Tuple) -> Result<bool> {
        Ok(self.truth(t)?.unwrap_or(false))
    }

    /// A column or literal, borrowed; `None` for anything else (or a
    /// column out of range). Comparing two leaves this way skips
    /// [`BoundExpr::operand`]'s `Result` and `Cow`, which cost half the
    /// time of a `k = 1500` test.
    fn leaf<'a>(&'a self, t: &'a Tuple) -> Option<&'a Value> {
        match self {
            BoundExpr::Col(i) => t.get(*i),
            BoundExpr::Lit(v) => Some(v),
            _ => None,
        }
    }

    /// The value of an operand: a column or literal borrowed, anything
    /// else evaluated.
    fn operand<'a>(&'a self, t: &'a Tuple) -> Result<Cow<'a, Value>> {
        match self {
            BoundExpr::Col(i) => t
                .get(*i)
                .map(Cow::Borrowed)
                .ok_or_else(|| Error::InvalidExpr(format!("column position {i} out of range"))),
            BoundExpr::Lit(v) => Ok(Cow::Borrowed(v)),
            e => e.eval(t).map(Cow::Owned),
        }
    }

    /// SQL three-valued truth (`None` = unknown; a value that is not a
    /// boolean is unknown too). Connectives skip their right operand where
    /// the left one decides: `q AND p` raises no error of `p` where `q` is
    /// false, so merging `σ_p(σ_q(R))` into `σ_{q ∧ p}(R)` keeps the inner
    /// selection's guard.
    fn truth(&self, t: &Tuple) -> Result<Option<bool>> {
        Ok(match self {
            BoundExpr::Cmp(op, a, b) => match (a.leaf(t), b.leaf(t)) {
                (Some(x), Some(y)) => op.apply(x, y),
                _ => op.apply(&*a.operand(t)?, &*b.operand(t)?),
            },
            BoundExpr::And(a, b) => match a.truth(t)? {
                Some(false) => Some(false),
                l => match (l, b.truth(t)?) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            BoundExpr::Or(a, b) => match a.truth(t)? {
                Some(true) => Some(true),
                l => match (l, b.truth(t)?) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            BoundExpr::Not(a) => a.truth(t)?.map(|b| !b),
            BoundExpr::IsNull(a) => Some(a.operand(t)?.is_null()),
            BoundExpr::InList(a, vs) => {
                let v = a.operand(t)?;
                (!v.is_null()).then(|| vs.iter().any(|x| x.sql_eq(&v) == Some(true)))
            }
            BoundExpr::Col(_) | BoundExpr::Lit(_) | BoundExpr::Bin(..) => {
                self.operand(t)?.as_bool()
            }
        })
    }
}

fn eval_arith(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are integers, float otherwise.
    if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
        return Ok(match op {
            BinOp::Add => Value::Int(x.wrapping_add(y)),
            BinOp::Sub => Value::Int(x.wrapping_sub(y)),
            BinOp::Mul => Value::Int(x.wrapping_mul(y)),
            BinOp::Div => {
                if y == 0 {
                    return Err(Error::Arithmetic("integer division by zero".into()));
                }
                Value::Int(x / y)
            }
            BinOp::Mod => {
                if y == 0 {
                    return Err(Error::Arithmetic("integer modulo by zero".into()));
                }
                Value::Int(x % y)
            }
        });
    }
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(Error::TypeError(format!(
                "arithmetic on non-numeric values {a} and {b}"
            )))
        }
    };
    Ok(Value::Float(match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Mod => x % y,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            ("a", ColumnType::Int),
            ("b", ColumnType::Str),
            ("c", ColumnType::Float),
        ])
    }

    fn row(a: i64, b: &str, c: f64) -> Tuple {
        Tuple::new(vec![Value::Int(a), Value::str(b), Value::Float(c)])
    }

    #[test]
    fn bind_resolves_columns() {
        let e = Expr::col("a").eq(Expr::lit(1i64));
        let be = e.bind(&schema()).unwrap();
        assert!(be.eval_predicate(&row(1, "x", 0.0)).unwrap());
        assert!(!be.eval_predicate(&row(2, "x", 0.0)).unwrap());
        assert!(Expr::col("zzz").bind(&schema()).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let t = Tuple::new(vec![Value::Null, Value::str("x"), Value::Float(1.0)]);
        // NULL = 1 → unknown → predicate false
        let e = Expr::col("a").eq(Expr::lit(1i64)).bind(&s).unwrap();
        assert!(!e.eval_predicate(&t).unwrap());
        // NOT (NULL = 1) is still unknown → false
        let e2 = Expr::col("a").eq(Expr::lit(1i64)).not().bind(&s).unwrap();
        assert!(!e2.eval_predicate(&t).unwrap());
        // unknown OR true = true
        let e3 = Expr::col("a")
            .eq(Expr::lit(1i64))
            .or(Expr::lit(true))
            .bind(&s)
            .unwrap();
        assert!(e3.eval_predicate(&t).unwrap());
        // unknown AND false = false
        let e4 = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::lit(false))
            .bind(&s)
            .unwrap();
        assert_eq!(e4.eval(&t).unwrap(), Value::Bool(false));
        // IS NULL sees through
        let e5 = Expr::col("a").is_null().bind(&s).unwrap();
        assert!(e5.eval_predicate(&t).unwrap());
    }

    #[test]
    fn connectives_skip_a_decided_right_operand() {
        let s = schema();
        let div0 = || Expr::Bin(BinOp::Div, Box::new(Expr::col("a")), Box::new(Expr::lit(0i64)));
        let guard = || Expr::col("a").eq(Expr::lit(2i64));
        let t = row(1, "x", 0.0);
        let and = guard().and(div0().eq(Expr::lit(1i64))).bind(&s).unwrap();
        assert_eq!(and.eval(&t).unwrap(), Value::Bool(false));
        let or = guard().not().or(div0().eq(Expr::lit(1i64))).bind(&s).unwrap();
        assert_eq!(or.eval(&t).unwrap(), Value::Bool(true));
        // the left operand is always evaluated
        let rev = div0().eq(Expr::lit(1i64)).and(guard()).bind(&s).unwrap();
        assert!(rev.eval(&t).is_err());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let s = schema();
        let e = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::col("a")),
            Box::new(Expr::lit(2i64)),
        )
        .bind(&s)
        .unwrap();
        assert_eq!(e.eval(&row(40, "x", 0.0)).unwrap(), Value::Int(42));
        let e2 = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::col("c")),
            Box::new(Expr::lit(2i64)),
        )
        .bind(&s)
        .unwrap();
        assert_eq!(e2.eval(&row(0, "x", 1.5)).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn division_by_zero_is_error() {
        let s = schema();
        let e = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::col("a")),
            Box::new(Expr::lit(0i64)),
        )
        .bind(&s)
        .unwrap();
        assert!(e.eval(&row(1, "x", 0.0)).is_err());
        // float division by zero is IEEE infinity, not an error
        let e2 = Expr::Bin(
            BinOp::Div,
            Box::new(Expr::col("c")),
            Box::new(Expr::lit(0.0)),
        )
        .bind(&s)
        .unwrap();
        assert_eq!(
            e2.eval(&row(0, "x", 1.0)).unwrap(),
            Value::Float(f64::INFINITY)
        );
    }

    #[test]
    fn in_list() {
        let s = schema();
        let e = Expr::col("b")
            .in_list(vec![Value::str("x"), Value::str("y")])
            .bind(&s)
            .unwrap();
        assert!(e.eval_predicate(&row(0, "y", 0.0)).unwrap());
        assert!(!e.eval_predicate(&row(0, "z", 0.0)).unwrap());
    }

    #[test]
    fn columns_collects_unique_names() {
        let e = Expr::col("a")
            .eq(Expr::col("b"))
            .and(Expr::col("a").gt(Expr::lit(0i64)));
        assert_eq!(e.columns(), vec!["a", "b"]);
    }

    #[test]
    fn conjuncts_split_and_rebuild() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit("x")))
            .and(Expr::col("c").gt(Expr::lit(0.0)));
        assert_eq!(e.conjuncts().len(), 3);
        let rebuilt = Expr::conjoin(e.conjuncts().into_iter().cloned().collect());
        assert_eq!(rebuilt.conjuncts().len(), 3);
        assert_eq!(Expr::conjoin(vec![]), Expr::Lit(Value::Bool(true)));
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(
            CmpOp::Le.apply(&Value::Int(1), &Value::Int(1)),
            Some(true)
        );
    }

    #[test]
    fn params_substitute_before_bind() {
        let s = schema();
        let e = Expr::col("a").eq(Expr::Param(0)).and(Expr::col("b").ne(Expr::Param(1)));
        assert_eq!(e.param_count(), 2);
        // binding with unbound params is refused
        assert!(e.bind(&s).is_err());
        // substituting closes the expression
        let closed = e.with_params(&[Value::Int(1), Value::str("x")]).unwrap();
        assert_eq!(closed.param_count(), 0);
        let be = closed.bind(&s).unwrap();
        assert!(!be.eval_predicate(&row(1, "x", 0.0)).unwrap());
        assert!(be.eval_predicate(&row(1, "y", 0.0)).unwrap());
        // too few values is an error
        assert!(e.with_params(&[Value::Int(1)]).is_err());
        assert_eq!(Expr::Param(0).to_string(), "?1");
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::col("a").eq(Expr::lit("x")).and(Expr::col("b").is_null());
        assert_eq!(e.to_string(), "((a = 'x') AND (b IS NULL))");
    }
}
