//! One table of scalar cases, each run through every evaluator the engine
//! has: the reference interpreter, the compiled evaluator with batching and
//! typed lanes on and off, and the optimizer's constant fold. Each case
//! states its value or its error; every evaluator must give exactly that —
//! the same value, or the same error variant with the same text. The
//! operands sit in a one-row table, so the compiled path reads them from
//! typed lanes where it can and the kernels run; the fold sees the same
//! operands as literals.

use perm_algebra::builder::{binary, cmp, col, lit, null_safe_eq};
use perm_algebra::{BinaryOp, CompareOp, Expr, Plan, PlanRef, ProjectItem, UnaryOp};
use perm_exec::{ExecError, Executor};
use perm_optimize::optimize;
use perm_storage::{Database, Relation, Schema, Tuple, Value};

/// An operator applied to the operands `a` (and `b`).
#[derive(Clone, Copy, Debug)]
enum Op {
    Unary(UnaryOp),
    Binary(BinaryOp),
}

impl Op {
    fn over(self, a: Expr, b: Expr) -> Expr {
        match self {
            Op::Unary(op) => Expr::Unary {
                op,
                expr: Box::new(a),
            },
            Op::Binary(op) => binary(op, a, b),
        }
    }
}

type Outcome = Result<Value, ExecError>;

fn cases() -> Vec<(Op, Value, Value, Outcome)> {
    use BinaryOp::{Add, Concat, Div, Mod, Mul, Sub};
    use Value::{Date, Float, Int, Null};
    let neg = Op::Unary(UnaryOp::Neg);
    let not = Op::Unary(UnaryOp::Not);
    let date_out_of_range = || Err(ExecError::Type("date out of range".into()));
    let no_operator = |l: &str, op: &str, r: &str| {
        Err(ExecError::Type(format!(
            "operator does not exist: {l} {op} {r}"
        )))
    };
    vec![
        // NULL operands.
        (Op::Binary(Add), Null, Int(1), Ok(Null)),
        (Op::Binary(Div), Int(1), Null, Ok(Null)),
        (
            Op::Binary(BinaryOp::Cmp(CompareOp::Lt)),
            Int(1),
            Null,
            Ok(Null),
        ),
        (
            Op::Binary(BinaryOp::NullSafeEq),
            Null,
            Null,
            Ok(Value::Bool(true)),
        ),
        (neg, Null, Null, Ok(Null)),
        (not, Null, Null, Ok(Null)),
        (
            Op::Unary(UnaryOp::IsNull),
            Null,
            Null,
            Ok(Value::Bool(true)),
        ),
        // Negation at the ends of `i64`: `-i64::MIN` has no `Int`.
        (neg, Int(i64::MIN), Null, Ok(Float(-(i64::MIN as f64)))),
        (neg, Int(i64::MAX), Null, Ok(Int(-i64::MAX))),
        (
            neg,
            Value::str("x"),
            Null,
            Err(ExecError::Type("cannot negate non-number".into())),
        ),
        // Integer overflow becomes an approximate float.
        (
            Op::Binary(Add),
            Int(i64::MAX),
            Int(1),
            Ok(Float(i64::MAX as f64 + 1.0)),
        ),
        (
            Op::Binary(Sub),
            Int(i64::MIN),
            Int(1),
            Ok(Float(i64::MIN as f64 - 1.0)),
        ),
        (
            Op::Binary(Mul),
            Int(i64::MAX),
            Int(2),
            Ok(Float(i64::MAX as f64 * 2.0)),
        ),
        (
            Op::Binary(Sub),
            Int(i64::MIN),
            Int(-1),
            Ok(Int(i64::MIN + 1)),
        ),
        // Dates ± integers: in range keeps the date, out of range is an error.
        (Op::Binary(Add), Date(9000), Int(90), Ok(Date(9090))),
        (Op::Binary(Sub), Date(9000), Int(9000), Ok(Date(0))),
        (
            Op::Binary(Add),
            Date(9000),
            Int(3_000_000_000),
            date_out_of_range(),
        ),
        (
            Op::Binary(Sub),
            Date(9000),
            Int(3_000_000_000),
            date_out_of_range(),
        ),
        (
            Op::Binary(Add),
            Int(3_000_000_000),
            Date(9000),
            date_out_of_range(),
        ),
        // Dates as PostgreSQL types them: `date - date` is a day count,
        // and no other operator or operand type pairs with a date.
        (Op::Binary(Add), Int(90), Date(9000), Ok(Date(9090))),
        (Op::Binary(Sub), Date(9000), Date(1000), Ok(Int(8000))),
        (Op::Binary(Sub), Date(1000), Date(9000), Ok(Int(-8000))),
        (
            Op::Binary(Add),
            Date(9000),
            Float(0.5),
            no_operator("date", "+", "float"),
        ),
        (
            Op::Binary(Sub),
            Date(9000),
            Float(0.5),
            no_operator("date", "-", "float"),
        ),
        (
            Op::Binary(Add),
            Date(9000),
            Date(1000),
            no_operator("date", "+", "date"),
        ),
        (
            Op::Binary(Sub),
            Int(90),
            Date(9000),
            no_operator("int", "-", "date"),
        ),
        (
            Op::Binary(Mul),
            Date(9000),
            Int(2),
            no_operator("date", "*", "int"),
        ),
        (
            Op::Binary(Div),
            Date(9000),
            Int(2),
            no_operator("date", "/", "int"),
        ),
        (
            Op::Binary(Mod),
            Int(2),
            Date(9000),
            no_operator("int", "%", "date"),
        ),
        // Division and remainder by zero.
        (
            Op::Binary(Div),
            Int(1),
            Int(0),
            Err(ExecError::DivisionByZero),
        ),
        (
            Op::Binary(Mod),
            Int(1),
            Int(0),
            Err(ExecError::DivisionByZero),
        ),
        (
            Op::Binary(Div),
            Float(1.5),
            Float(0.0),
            Err(ExecError::DivisionByZero),
        ),
        (
            Op::Binary(Add),
            Value::str("x"),
            Int(1),
            Err(ExecError::Type(
                "arithmetic over non-numeric values `x` and `1`".into(),
            )),
        ),
        // `NOT` over a non-boolean is UNKNOWN.
        (not, Int(5), Null, Ok(Null)),
        (not, Value::str("x"), Null, Ok(Null)),
        // `||` with a NULL operand is NULL.
        (Op::Binary(Concat), Value::str("a"), Null, Ok(Null)),
        (Op::Binary(Concat), Null, Value::str("a"), Ok(Null)),
        (
            Op::Binary(Concat),
            Value::str("a"),
            Int(1),
            Ok(Value::str("a1")),
        ),
    ]
}

fn one_row(a: &Value, b: &Value) -> Database {
    let mut db = Database::new();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::from_names(&["a", "b"]).with_qualifier("t"),
            vec![vec![a.clone(), b.clone()]],
        ),
    )
    .unwrap();
    db
}

/// `Π_{expr → v}(t)`.
fn projected(db: &Database, expr: Expr) -> Plan {
    perm_algebra::builder::PlanBuilder::scan(db, "t")
        .unwrap()
        .project(vec![ProjectItem::new(expr, "v")])
        .build()
}

fn value_of(result: perm_exec::Result<Relation>) -> Outcome {
    result.map(|r| {
        assert_eq!(r.len(), 1);
        r.tuples()[0].get(0).clone()
    })
}

/// What the optimizer's fold makes of `e` over literal operands, read off
/// `σ_{probe =ₙ e}` over one row: the literal it folded to, or `None` when
/// it left `e` in place.
fn folded(e: Expr) -> Option<Value> {
    let plan = Plan::Select {
        input: PlanRef::new(Plan::Values {
            schema: Schema::from_names(&["probe"]),
            rows: vec![Tuple::new(vec![Value::Null])],
        }),
        predicate: null_safe_eq(col("probe"), e),
    };
    match optimize(&plan).0 {
        Plan::Select {
            predicate: Expr::Binary { right, .. },
            ..
        } => match *right {
            Expr::Literal(v) => Some(v),
            _ => None,
        },
        other => panic!("the selection stays a selection: {other:?}"),
    }
}

/// The same value of the same type, or the same error variant with the
/// same text. (`Value`'s `==` is SQL's `=ₙ`, under which `Int(3)` equals
/// `Date(3)` and `Float(3.0)`, so the comparison goes by `Debug`.)
fn assert_outcome(got: &Outcome, want: &Outcome, evaluator: &str, case: &str) {
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{evaluator}: {case}"
    );
    if let (Err(g), Err(w)) = (got, want) {
        assert_eq!(g.to_string(), w.to_string(), "{evaluator}: {case}");
    }
}

#[test]
fn every_evaluator_gives_each_case_its_value_or_its_error() {
    for (op, a, b, want) in cases() {
        let case = format!("{op:?} over {a:?}, {b:?}");
        let db = one_row(&a, &b);
        let plan = projected(&db, op.over(col("a"), col("b")));

        let exec = Executor::new(&db);
        assert_outcome(
            &value_of(exec.execute_unoptimized(&plan)),
            &want,
            "interpreter",
            &case,
        );
        for batching in [true, false] {
            for columnar in [true, false] {
                let exec = Executor::new(&db)
                    .with_batching(batching)
                    .with_columnar(columnar);
                assert_outcome(
                    &value_of(exec.execute(&plan)),
                    &want,
                    &format!("compiled, batching {batching}, columnar {columnar}"),
                    &case,
                );
            }
        }

        // A fold is exact where it fires, and leaves a failing constant in
        // place to fail at runtime.
        let literal = op.over(Expr::Literal(a.clone()), Expr::Literal(b.clone()));
        match (folded(literal.clone()), &want) {
            (Some(v), Ok(w)) => assert_eq!(format!("{v:?}"), format!("{w:?}"), "fold: {case}"),
            (Some(v), Err(_)) => panic!("fold: {case} folded to {v:?}"),
            (None, _) => {}
        }
        assert_outcome(
            &value_of(Executor::new(&db).execute(&optimize(&projected(&db, literal)).0)),
            &want,
            "optimized literal",
            &case,
        );
    }
}

#[test]
fn arithmetic_and_comparison_over_literals_fold() {
    // The fold fires on the operators it handles, so the table above checks
    // its value, not only that it declines.
    let fold = |e: Expr| format!("{:?}", folded(e));
    let two = || Expr::Literal(Value::Int(2));
    assert_eq!(
        fold(binary(BinaryOp::Add, lit(i64::MAX), two())),
        "Some(Float(9.223372036854776e18))"
    );
    assert_eq!(
        fold(cmp(CompareOp::Lt, two(), Expr::Literal(Value::Null))),
        "Some(Null)"
    );
    assert_eq!(
        fold(binary(BinaryOp::Add, lit(Value::Date(9000)), lit(90))),
        "Some(Date(9090))"
    );
    assert_eq!(fold(binary(BinaryOp::Div, two(), lit(0))), "None");
}
