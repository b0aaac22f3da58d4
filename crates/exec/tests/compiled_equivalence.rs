//! Compiled-vs-interpreted equivalence: `Executor::execute` (slot-compiled
//! expressions + parameterized sublink memo) must produce relations
//! bag-equal to `Executor::execute_unoptimized` (the name-resolving
//! reference interpreter) for every sublink kind, correlated or not,
//! including NULL bindings and empty sublink results — with the memo both
//! on and off.

use perm_algebra::builder::{
    self, all_sublink, any_sublink, col, count_star, eq, exists_sublink, lit, max, not, null, qcol,
    scalar_sublink, sum, PlanBuilder,
};
use perm_algebra::{BinaryOp, CompareOp, Expr, FuncName, Plan, ProjectItem, SetOpKind, SortKey};
use perm_core::{ProvenanceQuery, Strategy};
use perm_exec::{CompiledExpr, CompiledNode, Executor};
use perm_storage::{Attribute, DataType, Database, Relation, Schema, Value};
use perm_synthetic::{build_database, build_query, random_range, QueryKind};

/// R(a, b, g), S(c, d, g) and a tiny U(e): `g` is a low-cardinality
/// correlation attribute with NULLs mixed in, so memo entries are shared
/// across outer tuples and NULL bindings are exercised.
fn test_db() -> Database {
    let mut db = Database::new();
    let r_rows: Vec<Vec<Value>> = (0..12)
        .map(|i| {
            let g = if i % 5 == 4 {
                Value::Null
            } else {
                Value::Int(i % 3)
            };
            vec![Value::Int(i), Value::Int(i % 4), g]
        })
        .collect();
    let s_rows: Vec<Vec<Value>> = (0..8)
        .map(|i| {
            let g = if i == 7 {
                Value::Null
            } else {
                Value::Int(i % 3)
            };
            vec![Value::Int(100 + i), Value::Int(i % 2), g]
        })
        .collect();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("r", "a", DataType::Int),
                Attribute::qualified("r", "b", DataType::Int),
                Attribute::qualified("r", "g", DataType::Int),
            ]),
            r_rows,
        ),
    )
    .unwrap();
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("s", "c", DataType::Int),
                Attribute::qualified("s", "d", DataType::Int),
                Attribute::qualified("s", "g", DataType::Int),
            ]),
            s_rows,
        ),
    )
    .unwrap();
    db.create_table(
        "u",
        Relation::from_rows(
            Schema::new(vec![Attribute::qualified("u", "e", DataType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        ),
    )
    .unwrap();
    db
}

/// Asserts the three execution modes agree on `plan`, and that the memoized
/// run does no more operator work than the unmemoized one.
fn assert_execution_modes_agree(db: &Database, plan: &Plan) {
    let reference = Executor::new(db)
        .execute_unoptimized(plan)
        .expect("interpreter must run");

    let memoized_executor = Executor::new(db);
    let memoized = memoized_executor.execute(plan).expect("compiled must run");
    let memoized_ops = memoized_executor.operators_evaluated();

    let unmemoized_executor = Executor::new(db).with_sublink_memo(false);
    let unmemoized = unmemoized_executor
        .execute(plan)
        .expect("compiled (memo off) must run");
    let unmemoized_ops = unmemoized_executor.operators_evaluated();

    assert!(
        memoized.bag_eq(&reference),
        "compiled+memoized disagrees with the interpreter"
    );
    assert!(
        unmemoized.bag_eq(&reference),
        "compiled (memo off) disagrees with the interpreter"
    );
    assert!(
        memoized_ops <= unmemoized_ops,
        "memoization must never add operator evaluations ({memoized_ops} > {unmemoized_ops})"
    );
}

#[test]
fn prepare_compiles_a_selection_over_a_product_as_written() {
    // `prepare` reshapes nothing: σ over × builds the whole product and
    // filters it. Turning the pair into a join is the optimizer's last step.
    let db = test_db();
    let plan = PlanBuilder::scan(&db, "r")
        .unwrap()
        .cross(PlanBuilder::scan(&db, "u").unwrap().build())
        .select(builder::cmp(CompareOp::Lt, col("b"), col("e")))
        .build();
    let ex = Executor::new(&db);
    let (result, profile) = ex.execute_profiled(&ex.prepare(&plan).unwrap()).unwrap();
    let [product] = profile.root.children.as_slice() else {
        panic!("one input under the root: {profile:?}");
    };
    assert_eq!(profile.root.operator, "select");
    assert_eq!(
        (product.operator.as_str(), product.rows_out),
        ("cross_product", 24)
    );

    let (optimized, report) = perm_optimize::optimize(&plan);
    assert_eq!(report.selections_fused, 1, "{}", report.summary());
    let (joined, profile) = ex
        .execute_profiled(&ex.prepare(&optimized).unwrap())
        .unwrap();
    assert_eq!(profile.root.operator, "join");
    assert!(joined.bag_eq(&result) && result.bag_eq(&ex.execute_unoptimized(&plan).unwrap()));
}

#[test]
fn correlated_exists_sublink() {
    let db = test_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(qcol("s", "g"), qcol("r", "g")))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(sub))
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn correlated_not_exists_sublink() {
    let db = test_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(qcol("s", "g"), qcol("r", "g")))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(not(exists_sublink(sub)))
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn correlated_any_sublink() {
    let db = test_db();
    // a = ANY(Π_c(σ_{s.g = r.g}(S))) — NULL g rows of R get an empty
    // sublink, so ANY is FALSE for them.
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(qcol("s", "g"), qcol("r", "g")))
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(
            builder::binary(perm_algebra::BinaryOp::Add, col("a"), lit(100)),
            CompareOp::Eq,
            sub,
        ))
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn correlated_all_sublink() {
    let db = test_db();
    // b < ALL(Π_d(σ_{s.g = r.g}(S))) — ALL over the empty result (NULL g)
    // is TRUE.
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(qcol("s", "g"), qcol("r", "g")))
        .project_columns(&["d"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(all_sublink(col("b"), CompareOp::Lt, sub))
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn correlated_scalar_sublink_in_projection() {
    let db = test_db();
    // The aggregate guarantees a single row per binding, NULL-binding rows
    // included (count over the empty match set is 0).
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(qcol("s", "g"), qcol("r", "g")))
        .aggregate(vec![], vec![count_star("n")])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project(vec![
            ProjectItem::column("a"),
            ProjectItem::new(scalar_sublink(sub), "n_matches"),
        ])
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn null_binding_comparison_inside_sublink() {
    let db = test_db();
    // The correlated comparison itself sees NULL bindings: g = NULL is
    // UNKNOWN, never TRUE, and the memo must keep the NULL-binding result
    // separate from g = 0.
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(builder::or(
            eq(qcol("s", "g"), qcol("r", "g")),
            eq(qcol("s", "d"), qcol("r", "b")),
        ))
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Le, sub))
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn empty_sublink_results_for_every_kind() {
    let db = test_db();
    let empty_sub = || {
        PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), lit(-999)))
            .project_columns(&["c"])
            .build()
    };
    for q in [
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, empty_sub()))
            .build(),
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(all_sublink(col("a"), CompareOp::Eq, empty_sub()))
            .build(),
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(empty_sub()))
            .build(),
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .project(vec![
                ProjectItem::column("a"),
                ProjectItem::new(scalar_sublink(empty_sub()), "nothing"),
            ])
            .build(),
    ] {
        assert_execution_modes_agree(&db, &q);
    }
}

#[test]
fn nested_correlated_sublinks() {
    let db = test_db();
    // EXISTS(σ_{s.g = r.g ∧ EXISTS(σ_{u.e = s.d}(U))}(S)): the inner
    // sublink correlates one level up (s.d), the outer one two levels out
    // (r.g escapes through the middle scope).
    let inner = PlanBuilder::scan(&db, "u")
        .unwrap()
        .select(eq(col("e"), qcol("s", "d")))
        .build();
    let middle = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(builder::and(
            eq(qcol("s", "g"), qcol("r", "g")),
            exists_sublink(inner),
        ))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(middle))
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn correlation_only_through_nested_test_expr() {
    let db = test_db();
    // Π_{(r.a = ANY(Π_d(S)))}(U limit 1) used as a scalar sublink: the
    // sublink plan's *only* outer reference is the test expression of the
    // nested ANY sublink — the ANY's own plan is closed. The correlation
    // analysis must see through the nested test expression, or the memo
    // treats the sublink as uncorrelated and reuses the first outer tuple's
    // result for every binding.
    let inner_any = any_sublink(
        qcol("r", "a"),
        CompareOp::Eq,
        PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["d"])
            .build(),
    );
    let sub = PlanBuilder::scan(&db, "u")
        .unwrap()
        .limit(1)
        .project(vec![ProjectItem::new(inner_any, "hit")])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project(vec![
            ProjectItem::column("a"),
            ProjectItem::new(scalar_sublink(sub), "hit"),
        ])
        .build();
    assert_execution_modes_agree(&db, &q);

    // Pin the actual values: S.d holds {0, 1}, so only a = 0 and a = 1 hit —
    // the result must vary across outer tuples, not repeat the first one.
    let result = Executor::new(&db).execute(&q).unwrap();
    let hits: Vec<Value> = result.tuples().iter().map(|t| t.get(1).clone()).collect();
    let expected: Vec<Value> = (0..12).map(|i| Value::Bool(i < 2)).collect();
    assert_eq!(hits, expected);
}

#[test]
fn correlated_sublink_under_joins_sorts_and_set_ops() {
    let db = test_db();
    let correlated_exists = || {
        exists_sublink(
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(eq(qcol("s", "g"), qcol("r", "g")))
                .build(),
        )
    };
    // Join whose condition carries the sublink (nested-loop path).
    let join_q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .join(
            PlanBuilder::scan(&db, "u").unwrap().build(),
            builder::and(eq(col("b"), col("e")), correlated_exists()),
        )
        .build();
    assert_execution_modes_agree(&db, &join_q);

    // Sort keyed by a correlated scalar sublink.
    let sort_q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .sort(vec![
            SortKey::desc(scalar_sublink(
                PlanBuilder::scan(&db, "s")
                    .unwrap()
                    .select(eq(qcol("s", "g"), qcol("r", "g")))
                    .aggregate(vec![], vec![count_star("n")])
                    .build(),
            )),
            SortKey::asc(col("a")),
        ])
        .limit(5)
        .build();
    assert_execution_modes_agree(&db, &sort_q);

    // Set operation over two sublink selections.
    let left = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(correlated_exists())
        .project_columns(&["a"])
        .build();
    let right = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(not(correlated_exists()))
        .project_columns(&["a"])
        .build();
    let setop_q = PlanBuilder::from_plan(left)
        .set_op(SetOpKind::Union, true, right)
        .build();
    assert_execution_modes_agree(&db, &setop_q);
}

#[test]
fn correlated_sublink_in_aggregate_group_and_argument() {
    let db = test_db();
    // Group R by g and sum a guard value computed through a correlated
    // scalar sublink in the aggregate argument.
    let arg_sub = scalar_sublink(
        PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
            .aggregate(vec![], vec![count_star("n")])
            .build(),
    );
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .aggregate(vec![ProjectItem::column("g")], vec![sum(arg_sub, "total")])
        .build();
    assert_execution_modes_agree(&db, &q);
}

#[test]
fn memo_shares_entries_across_equal_bindings_only() {
    let db = test_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(qcol("s", "g"), qcol("r", "g")))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(sub))
        .build();
    let ex = Executor::new(&db);
    ex.execute(&q).unwrap();
    // R has bindings {0, 1, 2, NULL} for g → the 2-operator sublink runs 4
    // times; scan + select on top.
    assert_eq!(ex.operators_evaluated(), 2 + 4 * 2);
}

/// The memo's acceptance bar on the paper's expensive case, as operator
/// counts: on the Gen rewrite of the correlated `EXISTS` query q3, run as
/// rewritten, the parameterized memo cuts `operators_evaluated` at least
/// five-fold at |R1| = 1000, and the cut grows with the outer side — outer
/// tuples outnumber the distinct correlation bindings ever further. (|R2|
/// is 40 because the memo-off run costs |R1|·|R2|² row visits.)
#[test]
fn memo_cuts_gen_rewritten_q3_operators_five_fold_and_more_as_the_outer_side_grows() {
    let operators_on_and_off = |r1_rows: usize| {
        let (r2_rows, seed) = (40, 7);
        let db = build_database(r1_rows, r2_rows, seed);
        let params = random_range(r1_rows, r2_rows, seed);
        let q3 = build_query(&db, params, QueryKind::Q3CorrelatedExists);
        let rewritten = ProvenanceQuery::new(&db, &q3)
            .strategy(Strategy::Gen)
            .rewrite()
            .expect("Gen applies to every sublink");
        let memoized = Executor::new(&db);
        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        let with_memo = memoized.execute(rewritten.plan()).unwrap();
        let without_memo = unmemoized.execute(rewritten.plan()).unwrap();
        assert!(
            with_memo.bag_eq(&without_memo),
            "|R1|={r1_rows}: the memo changed the witness bag"
        );
        (
            memoized.operators_evaluated(),
            unmemoized.operators_evaluated(),
        )
    };
    let (on, off) = operators_on_and_off(1000);
    assert!(
        off >= 5 * on,
        "expected ≥5× fewer operators_evaluated with the memo at |R1|=1000: {on} on vs {off} off"
    );
    let (small_on, small_off) = operators_on_and_off(20);
    assert!(
        off as f64 / on as f64 > small_off as f64 / small_on as f64,
        "the memo's cut must grow with |R1|: {small_off}/{small_on} at 20, {off}/{on} at 1000"
    );
}

/// `σ_{r2.g = r1.g}(r2)`: one binding per `r1.g` value (32 groups), each
/// matching about `|r2| / 32` rows.
fn r2_group(db: &Database) -> PlanBuilder {
    PlanBuilder::scan(db, "r2")
        .unwrap()
        .select(eq(qcol("r2", "g"), qcol("r1", "g")))
}

/// A sublink-bearing predicate over `r1`, built against a database.
type Predicate = fn(&Database) -> Expr;

/// The memo's memory contract: an entry holds what a verdict needs — an
/// `EXISTS` flag, a scalar value, an `ANY` probe of the group's one
/// distinct `g` — never the sublink's result, so the bytes a correlated
/// sublink memoizes over 200 outer rows are the same whether each binding
/// matches ~12 inner rows or ~125.
#[test]
fn a_memo_entry_does_not_grow_with_the_sublink_result() {
    let cases: [(&str, Predicate); 3] = [
        ("EXISTS", |db| exists_sublink(r2_group(db).build())),
        ("scalar", |db| {
            builder::cmp(
                CompareOp::Lt,
                qcol("r1", "b"),
                scalar_sublink(
                    r2_group(db)
                        .aggregate(vec![], vec![max(qcol("r2", "b"), "m")])
                        .build(),
                ),
            )
        }),
        ("ANY", |db| {
            any_sublink(
                qcol("r1", "g"),
                CompareOp::Eq,
                r2_group(db).project_columns(&["g"]).build(),
            )
        }),
    ];
    for (label, sublink) in cases {
        let peak_bytes = |r2_rows: usize| {
            let db = build_database(200, r2_rows, 7);
            let q = PlanBuilder::scan(&db, "r1")
                .unwrap()
                .select(sublink(&db))
                .build();
            let ex = Executor::new(&db);
            ex.execute(&q).unwrap();
            ex.stats().peak_bytes
        };
        let small = peak_bytes(400);
        assert!(small > 0, "{label}: the memo holds entries");
        assert_eq!(small, peak_bytes(4000), "{label}");
    }
}

/// T(x, y, s, z) over 2 500 rows — more than two batches: `x` an integer
/// with NULLs, `y` an integer with zeros, `s` a two-digit string with
/// NULLs, `z` a string on every row but the first, an integer there. The
/// `IN` node's table.
fn in_db() -> Database {
    let mut db = Database::new();
    let rows = (0..2_500i64)
        .map(|i| {
            vec![
                match i % 7 {
                    3 => Value::Null,
                    _ => Value::Int(i % 5),
                },
                Value::Int(i % 4 + 1),
                match i % 11 {
                    5 => Value::Null,
                    _ => Value::str(format!("{:02}", i % 13)),
                },
                match i {
                    0 => Value::Int(5),
                    _ => Value::str("ab"),
                },
            ]
        })
        .collect();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::from_names(&["x", "y", "s", "z"]).with_qualifier("t"),
            rows,
        ),
    )
    .unwrap();
    db
}

fn func(name: FuncName, args: Vec<Expr>) -> Expr {
    Expr::Func { name, args }
}

/// `10 / (y - 4)`: fails on every fourth row of T.
fn ten_over_y_minus_4() -> Expr {
    let minus_4 = builder::binary(BinaryOp::Sub, col("y"), lit(4));
    builder::binary(BinaryOp::Div, lit(10), minus_4)
}

fn substring(e: Expr, start: i64, len: i64) -> Expr {
    func(FuncName::Substring, vec![e, lit(start), lit(len)])
}

/// Whether a compiled predicate is the `IN` node, or its negation.
fn is_in(predicate: &CompiledExpr) -> bool {
    match predicate {
        CompiledExpr::In { .. } => true,
        CompiledExpr::Unary { expr, .. } => is_in(expr),
        _ => false,
    }
}

/// σ and Π of `predicate` over T, as compiled plans against the
/// interpreter in every compiled mode (default, columnar off, batching
/// off): the same rows, or the same error. Returns whether the predicate
/// compiled to the `IN` node.
fn assert_in_agrees(db: &Database, predicate: Expr) -> bool {
    let scan = || PlanBuilder::scan(db, "t").unwrap();
    let plans = [
        scan().select(predicate.clone()).build(),
        scan()
            .project(vec![
                ProjectItem::new(col("x"), "x"),
                ProjectItem::new(predicate.clone(), "p"),
            ])
            .build(),
    ];
    let mut specialised = false;
    for plan in &plans {
        let reference = Executor::new(db).execute_unoptimized(plan);
        for (mode, ex) in [
            ("default", Executor::new(db)),
            ("columnar off", Executor::new(db).with_columnar(false)),
            ("batching off", Executor::new(db).with_batching(false)),
        ] {
            let compiled = ex.prepare(plan).unwrap();
            specialised = match compiled.root() {
                CompiledNode::Select { predicate, .. } => is_in(predicate),
                CompiledNode::Project { items, .. } => is_in(&items[1]),
                other => panic!("unexpected root {other:?}"),
            };
            let got = ex.execute_compiled(&compiled);
            match (&reference, &got) {
                (Ok(want), Ok(got)) => assert!(
                    got.bag_eq(want),
                    "{mode}: {predicate} differs from the interpreter"
                ),
                (Err(want), Err(got)) => assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{mode}: {predicate} fails differently"
                ),
                _ => panic!("{mode}: {predicate}: {got:?} against the interpreter's {reference:?}"),
            }
        }
    }
    specialised
}

#[test]
fn an_in_list_compiles_to_one_node_that_agrees_with_the_or_chain() {
    let db = in_db();
    let specialised: Vec<(&str, Expr)> = vec![
        ("ints", builder::in_list(col("x"), [lit(1), lit(3), lit(4)])),
        // NULL probe entries, and a NULL literal in the list.
        (
            "null literal",
            builder::in_list(col("x"), [lit(1), Expr::Literal(Value::Null), lit(4)]),
        ),
        ("not in", not(builder::in_list(col("x"), [lit(0), lit(2)]))),
        // `1 IN (1.0)`: an Int probe against Float literals.
        (
            "floats",
            builder::in_list(col("x"), [lit(1.0), lit(2.5), lit(4.0)]),
        ),
        (
            "strings",
            builder::in_list(col("s"), [lit("01"), lit("07"), lit("12")]),
        ),
        // A Str probe against an Int literal: FALSE through the scalar path.
        (
            "mixed list",
            builder::in_list(col("s"), [lit(7), lit("03"), lit("11")]),
        ),
        // A function's `Values` output, as in TPC-H Q22.
        (
            "substring",
            builder::in_list(substring(col("s"), 1, 1), [lit("0"), lit("2")]),
        ),
        (
            "all null literals",
            builder::in_list(col("x"), [null(), null()]),
        ),
        // A failing probe: the same DivisionByZero.
        (
            "failing probe",
            builder::in_list(ten_over_y_minus_4(), [lit(1), lit(2)]),
        ),
        // Two errors in one batch: `length(5)` on row 0, `10 / 0` on row 3.
        // Expression-major, the division fails first; the one-row replay
        // of the failing batch raises row 0's type error, as the
        // interpreter does.
        (
            "replayed batch",
            builder::in_list(
                Expr::Case {
                    branches: vec![(eq(col("y"), lit(4)), ten_over_y_minus_4())],
                    else_expr: Some(Box::new(func(FuncName::Length, vec![col("z")]))),
                },
                [lit(1), lit(2)],
            ),
        ),
    ];
    for (label, predicate) in specialised {
        assert!(assert_in_agrees(&db, predicate), "{label}: the IN node");
    }
    let generic: Vec<(&str, Expr)> = vec![
        (
            "right-nested",
            builder::or(
                eq(col("x"), lit(1)),
                builder::or(eq(col("x"), lit(2)), eq(col("x"), lit(3))),
            ),
        ),
        (
            "mixed probes",
            builder::or(
                builder::in_list(col("x"), [lit(1), lit(2)]),
                eq(col("y"), lit(2)),
            ),
        ),
        // The same probe written with an Int and a Float literal: `y - 4`
        // and `y - 4.0` are different expressions.
        (
            "probes written apart",
            builder::or(
                eq(builder::binary(BinaryOp::Sub, col("y"), lit(4)), lit(0)),
                eq(builder::binary(BinaryOp::Sub, col("y"), lit(4.0)), lit(-1)),
            ),
        ),
        (
            "literal on the left",
            builder::or(eq(col("x"), lit(1)), eq(lit(2), col("x"))),
        ),
    ];
    for (label, predicate) in generic {
        assert!(
            !assert_in_agrees(&db, predicate),
            "{label}: stays an OR chain"
        );
    }
}

/// The node's fallback rows are the rows no typed comparison ran for: none
/// over a typed probe lane, every row over a `Values` one.
#[test]
fn an_in_list_counts_fallback_rows_only_where_no_typed_kernel_ran() {
    let db = in_db();
    let fallback = |ex: Executor<'_>, predicate: Expr| {
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(predicate)
            .build();
        ex.execute(&plan).unwrap();
        ex.columnar_fallback_rows()
    };
    let ints = || builder::in_list(col("x"), [lit(1.0), lit(3), null()]);
    let strings = || builder::in_list(substring(col("s"), 1, 1), [lit(7), lit("0")]);
    assert_eq!(fallback(Executor::new(&db), ints()), 0);
    assert_eq!(fallback(Executor::new(&db), strings()), 0);
    assert_eq!(
        fallback(Executor::new(&db).with_columnar(false), ints()),
        2_500
    );
    // A probe of mixed representations stays a `Values` lane: `z` is an
    // integer on row 0 only, so the first batch falls back and the others
    // are typed string lanes.
    let mixed = builder::in_list(col("z"), [lit("ab"), lit(5)]);
    assert_eq!(
        fallback(Executor::new(&db), mixed),
        perm_exec::BATCH_ROWS as u64
    );
}

/// A probe holding a sublink is not specialised: each disjunct looks its
/// sublink up as before, so the memo counts are those of the same chain
/// written in a shape the node does not take.
#[test]
fn an_in_list_over_a_sublink_probe_stays_an_or_chain() {
    let db = test_db();
    let sub = || {
        scalar_sublink(
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(eq(qcol("s", "g"), qcol("r", "g")))
                .aggregate(vec![], vec![max(qcol("s", "c"), "m")])
                .build(),
        )
    };
    let as_in = builder::in_list(sub(), [lit(103), lit(105)]);
    let as_or = builder::or(eq(sub(), lit(103)), eq(lit(105), sub()));
    let mut counts = Vec::new();
    for predicate in [as_in, as_or] {
        let plan = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(predicate)
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let CompiledNode::Select { predicate, .. } = compiled.root() else {
            panic!("a selection");
        };
        assert!(!matches!(predicate, CompiledExpr::In { .. }));
        let got = ex.execute_compiled(&compiled).unwrap();
        assert!(got.bag_eq(&ex.execute_unoptimized(&plan).unwrap()));
        let stats = ex.stats();
        counts.push((got.len(), stats.memo_hits, stats.memo_misses));
    }
    assert_eq!(counts[0], counts[1]);
    assert!(counts[0].2 > 0, "the sublinks ran: {counts:?}");
}
