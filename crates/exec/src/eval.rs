//! Expression evaluation, including sublinks and correlated attribute
//! references.

use crate::functions;
use crate::interpreter::Interpreter;
use crate::physical::OpRows;
use crate::{ExecError, Result};
use perm_algebra::{
    arithmetic, compare, BinaryOp, CompareOp, Expr, FuncName, SublinkKind, UnaryOp,
};
use perm_storage::{Name, Schema, Truth, Tuple, Value};

/// An evaluation environment: the current operator's input tuple plus a
/// chain of enclosing scopes. Column references resolve innermost-first,
/// which is exactly the SQL scoping rule that makes correlated sublinks work
/// ("for each tuple t from the algebra expression that is referenced, Tsub is
/// evaluated for the parameter bound to the value of the referenced
/// attribute", Section 2.2).
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    /// The enclosing scope, if any.
    pub parent: Option<&'a Env<'a>>,
    /// Schema of the current scope.
    pub schema: &'a Schema,
    /// Tuple currently bound in this scope.
    pub tuple: &'a Tuple,
}

impl<'a> Env<'a> {
    /// Creates a new innermost scope on top of `parent`.
    pub fn new(parent: Option<&'a Env<'a>>, schema: &'a Schema, tuple: &'a Tuple) -> Env<'a> {
        Env {
            parent,
            schema,
            tuple,
        }
    }

    /// Resolves a column reference, searching this scope first and then the
    /// enclosing scopes.
    pub fn lookup(&self, qualifier: Option<Name>, name: Name) -> Result<Value> {
        match self.schema.try_resolve(qualifier, name)? {
            Some(i) => Ok(self.tuple.get(i).clone()),
            None => match self.parent {
                Some(p) => p.lookup(qualifier, name),
                None => Err(ExecError::Storage(
                    perm_storage::StorageError::UnknownAttribute(name.to_string()),
                )),
            },
        }
    }
}

impl<'p> Interpreter<'p> {
    /// Evaluates an expression to a value in the given environment.
    pub fn eval_expr(&self, expr: &'p Expr, env: Option<&Env<'_>>) -> Result<Value> {
        match expr {
            Expr::Column { qualifier, name } => match env {
                Some(e) => e.lookup(*qualifier, *name),
                None => Err(ExecError::Storage(
                    perm_storage::StorageError::UnknownAttribute(name.to_string()),
                )),
            },
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Param(index) => self.x.param_value(*index),
            Expr::Binary { op, left, right } => self.eval_binary(*op, left, right, env),
            Expr::Unary { op, expr } => apply_unary(*op, self.eval_expr(expr, env)?),
            Expr::Func { name, args } => self.eval_func(*name, args, env),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (cond, result) in branches {
                    if self.eval_predicate(cond, env)?.is_true() {
                        return self.eval_expr(result, env);
                    }
                }
                match else_expr {
                    Some(e) => self.eval_expr(e, env),
                    None => Ok(Value::Null),
                }
            }
            Expr::Sublink {
                kind,
                test_expr,
                op,
                plan,
            } => self.eval_sublink(*kind, test_expr.as_deref(), *op, plan, env),
        }
    }

    /// Evaluates an expression as a predicate (three-valued).
    pub fn eval_predicate(&self, expr: &'p Expr, env: Option<&Env<'_>>) -> Result<Truth> {
        Ok(self.eval_expr(expr, env)?.as_truth())
    }

    fn eval_binary(
        &self,
        op: BinaryOp,
        left: &'p Expr,
        right: &'p Expr,
        env: Option<&Env<'_>>,
    ) -> Result<Value> {
        // Boolean connectives get non-strict NULL handling, everything else
        // evaluates both sides first.
        if matches!(op, BinaryOp::And | BinaryOp::Or) {
            let l = self.eval_expr(left, env)?.as_truth();
            // Short-circuit where three-valued logic allows it; this matters
            // because the Gen rewrite guards expensive EXISTS sublinks behind
            // cheap comparisons.
            if op == BinaryOp::And && l == Truth::False {
                return Ok(Truth::False.to_value());
            }
            if op == BinaryOp::Or && l == Truth::True {
                return Ok(Truth::True.to_value());
            }
            let r = self.eval_expr(right, env)?.as_truth();
            return Ok(match op {
                BinaryOp::And => l.and(r),
                BinaryOp::Or => l.or(r),
                _ => unreachable!(),
            }
            .to_value());
        }

        let l = self.eval_expr(left, env)?;
        let r = self.eval_expr(right, env)?;
        apply_binary_scalar(op, &l, &r)
    }

    fn eval_func(&self, name: FuncName, args: &'p [Expr], env: Option<&Env<'_>>) -> Result<Value> {
        let values: Vec<Value> = args
            .iter()
            .map(|a| self.eval_expr(a, env))
            .collect::<Result<_>>()?;
        apply_func(name, &values)
    }

    fn eval_sublink(
        &self,
        kind: SublinkKind,
        test_expr: Option<&'p Expr>,
        op: Option<CompareOp>,
        plan: &'p perm_algebra::Plan,
        env: Option<&Env<'_>>,
    ) -> Result<Value> {
        match kind {
            SublinkKind::Exists => {
                let result = self.execute_sublink(plan, env)?;
                Ok(Value::Bool(!result.is_empty()))
            }
            SublinkKind::Scalar => {
                let result = self.execute_sublink(plan, env)?;
                scalar_sublink_value(&result)
            }
            SublinkKind::Any | SublinkKind::All => {
                let test = test_expr.ok_or_else(|| {
                    ExecError::Unsupported("ANY/ALL sublink without test expression".into())
                })?;
                let op = op.ok_or_else(|| {
                    ExecError::Unsupported("ANY/ALL sublink without comparison operator".into())
                })?;
                let test_value = self.eval_expr(test, env)?;
                let result = self.execute_sublink(plan, env)?;
                check_quantified_arity(result.schema().arity())?;
                // The reference folds; every row it compares is counted.
                let rows = result.tuples().iter().map(|row| {
                    self.x.ex.governor.count().quantifier_comparisons += 1;
                    row.get(0)
                });
                Ok(fold_quantified(kind, op, &test_value, rows).to_value())
            }
        }
    }
}

/// Folds `test op ANY/ALL (rows)` under three-valued logic, stopping once
/// the quantifier is decided — the interpreter's (reference) evaluation of
/// an `ANY`/`ALL` sublink, which the compiled path answers from a
/// [`crate::QuantProbe`] instead.
pub fn fold_quantified<'v>(
    kind: SublinkKind,
    op: CompareOp,
    test: &Value,
    rows: impl IntoIterator<Item = &'v Value>,
) -> Truth {
    let any = kind == SublinkKind::Any;
    let mut acc = Truth::from_bool(!any);
    for row in rows {
        let t = compare(op, test, row);
        acc = if any { acc.or(t) } else { acc.and(t) };
        if acc == Truth::from_bool(any) {
            break;
        }
    }
    acc
}

/// An `ANY`/`ALL` sublink compares against exactly one column; checked on
/// its result by both drivers before any row is compared (the binder
/// refuses other SQL, a hand-built plan gets this error).
pub(crate) fn check_quantified_arity(arity: usize) -> Result<()> {
    match arity {
        1 => Ok(()),
        n => Err(ExecError::QuantifiedSublinkArity(n)),
    }
}

/// Applies a unary operator to one value: what the interpreter evaluates
/// and every unary kernel equals (the fallback of
/// [`crate::kernels::unary_column`] runs it).
pub(crate) fn apply_unary(op: UnaryOp, v: Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::Not => v.as_truth().not().to_value(),
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            // `-i64::MIN` has no `Int`: it becomes a float, as an
            // overflowing `arithmetic` does.
            Value::Int(i) => i
                .checked_neg()
                .map_or(Value::Float(-(i as f64)), Value::Int),
            Value::Float(f) => Value::Float(-f),
            _ => return Err(ExecError::Type("cannot negate non-number".into())),
        },
        UnaryOp::IsNull => Value::Bool(v.is_null()),
        UnaryOp::IsNotNull => Value::Bool(!v.is_null()),
    })
}

/// Applies a non-logical binary operator to two values (`AND`/`OR`
/// short-circuit and never reach here): what the interpreter evaluates and
/// every binary kernel equals (the fallback of
/// [`crate::kernels::binary_column`] runs it).
pub(crate) fn apply_binary_scalar(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            Ok(arithmetic(op, l, r)?)
        }
        BinaryOp::Cmp(cmp_op) => Ok(compare(cmp_op, l, r).to_value()),
        BinaryOp::NullSafeEq => Ok(Value::Bool(l.null_safe_eq(r))),
        BinaryOp::Like => Ok(functions::sql_like(l, r).to_value()),
        BinaryOp::NotLike => Ok(functions::sql_like(l, r).not().to_value()),
        BinaryOp::Concat => match (l, r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Ok(Value::str(format!("{l}{r}"))),
        },
        BinaryOp::And | BinaryOp::Or => unreachable!("logical connectives short-circuit"),
    }
}

/// Applies a scalar function to already-evaluated argument values. Shared by
/// the interpreter and the compiled evaluator so their dispatch cannot
/// drift apart.
pub(crate) fn apply_func(name: FuncName, values: &[Value]) -> Result<Value> {
    match name {
        FuncName::Substring => {
            if values.len() < 2 {
                return Err(ExecError::Type("substring needs 2 or 3 arguments".into()));
            }
            functions::substring(&values[0], &values[1], values.get(2))
        }
        FuncName::Abs => functions::abs(&values[0]),
        FuncName::Coalesce => Ok(functions::coalesce(values)),
        FuncName::Lower => functions::change_case(&values[0], false),
        FuncName::Upper => functions::change_case(&values[0], true),
        FuncName::Length => functions::length(&values[0]),
        FuncName::Date => functions::to_date(&values[0]),
        FuncName::Year => functions::year(&values[0]),
    }
}

/// Folds a scalar sublink result into its value, enforcing the
/// one-attribute / at-most-one-tuple cardinality rules. Shared by the
/// interpreter and the compiled evaluator.
pub(crate) fn scalar_sublink_value(result: &OpRows<'_>) -> Result<Value> {
    if result.schema().arity() != 1 {
        return Err(ExecError::ScalarSublinkCardinality(format!(
            "scalar sublink must produce one attribute, got {}",
            result.schema().arity()
        )));
    }
    match result.len() {
        0 => Ok(Value::Null),
        1 => Ok(result.tuples()[0].get(0).clone()),
        n => Err(ExecError::ScalarSublinkCardinality(format!(
            "scalar sublink produced {n} tuples"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use perm_algebra::builder::{col, lit, qcol};
    use perm_storage::{Database, Schema};

    fn executor_fixture() -> Database {
        Database::new()
    }

    /// `expr` evaluated by a fresh interpreter with no scope.
    fn eval(ex: &Executor<'_>, expr: &Expr) -> Result<Value> {
        Interpreter::new(ex).eval_expr(expr, None)
    }

    #[test]
    fn env_resolves_innermost_first() {
        let outer_schema = Schema::from_names(&["a", "b"]).with_qualifier("r");
        let outer_tuple = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let inner_schema = Schema::from_names(&["c"]).with_qualifier("s");
        let inner_tuple = Tuple::new(vec![Value::Int(9)]);
        let outer = Env::new(None, &outer_schema, &outer_tuple);
        let inner = Env::new(Some(&outer), &inner_schema, &inner_tuple);
        assert_eq!(inner.lookup(None, "c".into()).unwrap(), Value::Int(9));
        assert_eq!(inner.lookup(None, "b".into()).unwrap(), Value::Int(2));
        assert_eq!(
            inner.lookup(Some("r".into()), "a".into()).unwrap(),
            Value::Int(1)
        );
        assert!(inner.lookup(None, "zz".into()).is_err());
    }

    #[test]
    fn comparison_three_valued() {
        assert_eq!(
            compare(CompareOp::Lt, &Value::Int(1), &Value::Int(2)),
            Truth::True
        );
        assert_eq!(
            compare(CompareOp::Ge, &Value::Int(1), &Value::Null),
            Truth::Unknown
        );
        assert_eq!(
            compare(CompareOp::Neq, &Value::str("a"), &Value::str("a")),
            Truth::False
        );
    }

    #[test]
    fn arithmetic_and_logic() {
        let db = executor_fixture();
        let ex = Executor::new(&db);
        let v = eval(
            &ex,
            &perm_algebra::builder::binary(BinaryOp::Add, lit(1), lit(2)),
        )
        .unwrap();
        assert_eq!(v, Value::Int(3));
        let v = eval(
            &ex,
            &perm_algebra::builder::binary(BinaryOp::Div, lit(7), lit(2.0)),
        )
        .unwrap();
        assert_eq!(v, Value::Float(3.5));
        assert!(eval(
            &ex,
            &perm_algebra::builder::binary(BinaryOp::Div, lit(7), lit(0))
        )
        .is_err());
        // NULL propagation
        let v = eval(
            &ex,
            &perm_algebra::builder::binary(BinaryOp::Mul, lit(7), perm_algebra::builder::null()),
        )
        .unwrap();
        assert!(v.is_null());
    }

    #[test]
    fn int_arithmetic_is_exact_above_two_pow_53() {
        const TWO_53: i64 = 1 << 53;
        let assert_int = |op: BinaryOp, a: i64, b: i64, expect: i64| match arithmetic(
            op,
            &Value::Int(a),
            &Value::Int(b),
        )
        .unwrap()
        {
            Value::Int(i) => assert_eq!(i, expect, "{a} {op} {b}"),
            other => panic!("{a} {op} {b}: expected Int, got {other:?}"),
        };
        // The f64 route would round 2⁵³ + 1 back to 2⁵³, making a + 1 = a.
        assert_int(BinaryOp::Add, TWO_53, 1, TWO_53 + 1);
        assert_int(BinaryOp::Sub, TWO_53 + 2, 1, TWO_53 + 1);
        assert_int(BinaryOp::Mul, TWO_53 + 1, 1, TWO_53 + 1);
        assert_int(BinaryOp::Mod, TWO_53 + 1, TWO_53, 1);
        // Integral quotients stay exact integers; fractional ones stay
        // floats.
        assert_int(BinaryOp::Div, 2 * (TWO_53 + 1), 2, TWO_53 + 1);
        assert_eq!(
            arithmetic(BinaryOp::Div, &Value::Int(7), &Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        // Overflow falls back to an approximate float instead of saturating
        // an integer cast.
        match arithmetic(BinaryOp::Add, &Value::Int(i64::MAX), &Value::Int(i64::MAX)).unwrap() {
            Value::Float(f) => assert_eq!(f, 2.0 * i64::MAX as f64),
            other => panic!("expected float on overflow, got {other:?}"),
        }
        assert!(matches!(
            arithmetic(BinaryOp::Mod, &Value::Int(1), &Value::Int(0)).map_err(ExecError::from),
            Err(ExecError::DivisionByZero)
        ));
        // i64::MIN % -1 overflows checked_rem but is mathematically 0.
        assert_int(BinaryOp::Mod, i64::MIN, -1, 0);
    }

    #[test]
    fn and_or_short_circuit_with_three_valued_logic() {
        let db = executor_fixture();
        let ex = Executor::new(&db);
        // FALSE AND <error> would fail if not short-circuited; use a column
        // reference that cannot be resolved as the "error".
        let e = perm_algebra::builder::and(lit(false), col("does_not_exist"));
        assert_eq!(eval(&ex, &e).unwrap(), Value::Bool(false));
        let e = perm_algebra::builder::or(lit(true), qcol("x", "y"));
        assert_eq!(eval(&ex, &e).unwrap(), Value::Bool(true));
        // NULL OR TRUE == TRUE, NULL AND TRUE == NULL
        let e = perm_algebra::builder::or(perm_algebra::builder::null(), lit(true));
        assert_eq!(eval(&ex, &e).unwrap(), Value::Bool(true));
        let e = perm_algebra::builder::and(perm_algebra::builder::null(), lit(true));
        assert!(eval(&ex, &e).unwrap().is_null());
    }

    #[test]
    fn case_expression() {
        let db = executor_fixture();
        let ex = Executor::new(&db);
        let e = Expr::Case {
            branches: vec![
                (perm_algebra::builder::eq(lit(1), lit(2)), lit("no")),
                (perm_algebra::builder::eq(lit(1), lit(1)), lit("yes")),
            ],
            else_expr: Some(Box::new(lit("else"))),
        };
        assert_eq!(eval(&ex, &e).unwrap(), Value::str("yes"));
    }

    #[test]
    fn date_interval_arithmetic_keeps_date_type() {
        let db = executor_fixture();
        let ex = Executor::new(&db);
        let d = Expr::Literal(Value::parse_date("1995-01-01").unwrap());
        let e = perm_algebra::builder::binary(BinaryOp::Add, d, lit(90));
        let v = eval(&ex, &e).unwrap();
        match v {
            Value::Date(days) => assert_eq!(Value::format_date(days), "1995-04-01"),
            other => panic!("expected date, got {other:?}"),
        }
    }
}
