//! Cross-strategy equivalence tests: every applicable rewrite strategy must
//! produce the same provenance (as a set of extended tuples) as the tracer,
//! and the rewritten query restricted to the original attributes must
//! reproduce the original query result (result preservation, Theorem 4).

use perm_algebra::builder::{
    all_sublink, any_sublink, col, eq, exists_sublink, lit, not, or, qcol, scalar_sublink,
    PlanBuilder,
};
use perm_algebra::{CompareOp, Plan, ProjectItem};
use perm_core::definition::BruteForce;
use perm_core::tracer::Tracer;
use perm_core::{ProvenanceQuery, Strategy};
use perm_exec::Executor;
use perm_storage::{Attribute, DataType, Database, Name, Relation, Schema, Tuple, Value};

/// The example relations of Figure 3 plus a third relation for multi-sublink
/// queries.
fn figure3_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("r", "a", DataType::Int),
                Attribute::qualified("r", "b", DataType::Int),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(3), Value::Int(2)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("s", "c", DataType::Int),
                Attribute::qualified("s", "d", DataType::Int),
            ]),
            vec![
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(4)],
                vec![Value::Int(4), Value::Int(5)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "u",
        Relation::from_rows(
            Schema::new(vec![Attribute::qualified("u", "e", DataType::Int)]),
            vec![vec![Value::Int(2)], vec![Value::Int(5)]],
        ),
    )
    .unwrap();
    db
}

/// Projects a relation onto the given attribute names (used to reorder the
/// rewrite output so it can be compared with the tracer output, whose column
/// order may differ when strategies attach provenance in different orders).
fn project_named(rel: &Relation, names: &[Name]) -> Vec<Vec<Value>> {
    let positions: Vec<usize> = names
        .iter()
        .map(|&n| {
            rel.schema()
                .resolve(None, n)
                .unwrap_or_else(|_| panic!("missing column {n}"))
        })
        .collect();
    let mut rows: Vec<Vec<Value>> = rel
        .tuples()
        .iter()
        .map(|t| positions.iter().map(|&i| t.get(i).clone()).collect())
        .collect();
    rows.sort_by(|a, b| Tuple::new(a.clone()).sort_key(&Tuple::new(b.clone())));
    rows.dedup_by(|a, b| Tuple::new(a.clone()).null_safe_eq(&Tuple::new(b.clone())));
    rows
}

/// Asserts that every applicable strategy produces the same (distinct-set)
/// provenance as the tracer, that the original result is preserved, and
/// that the compiled+memoized execution path agrees bag-for-bag with the
/// reference interpreter on every plan it runs — as does the optimized plan.
fn assert_strategies_match_tracer(db: &Database, plan: &Plan, expect_applicable: &[Strategy]) {
    let executor = Executor::new(db);
    let original = executor.execute(plan).expect("original query must run");
    let original_interpreted = executor
        .execute_unoptimized(plan)
        .expect("original query must run in the interpreter");
    assert!(
        original.bag_eq(&original_interpreted),
        "compiled execution of the original query differs from the interpreter"
    );

    let tracer = Tracer::new(db);
    let traced = tracer.trace(plan).expect("tracer must succeed");
    let reference_columns = traced.schema().names();
    let reference_rows = project_named(&traced, &reference_columns);

    let mut applicable = Vec::new();
    for strategy in Strategy::ALL {
        let rewritten = match ProvenanceQuery::new(db, plan).strategy(strategy).rewrite() {
            Ok(r) => r,
            Err(perm_core::ProvenanceError::NotApplicable { .. }) => continue,
            Err(other) => panic!("{strategy} failed: {other}"),
        };
        applicable.push(strategy);
        let result = executor
            .execute(rewritten.plan())
            .unwrap_or_else(|e| panic!("executing the {strategy} rewrite failed: {e}"));

        // Compiled + memoized execution is cross-checked against the
        // name-resolving interpreter on every rewritten plan — the rewrites
        // (Gen especially) are the main source of correlated sublinks.
        let interpreted = executor
            .execute_unoptimized(rewritten.plan())
            .unwrap_or_else(|e| panic!("interpreting the {strategy} rewrite failed: {e}"));
        assert!(
            result.bag_eq(&interpreted),
            "strategy {strategy}: compiled+memoized execution differs from the interpreter"
        );

        // The optimizer (decorrelation into joins above all) must be
        // invisible: same witness bag as the plan exactly as rewritten.
        let optimized = Executor::new(db)
            .execute(&perm_optimize::optimize(rewritten.plan()).0)
            .unwrap_or_else(|e| panic!("optimizing the {strategy} rewrite broke it: {e}"));
        assert!(
            optimized.bag_eq(&interpreted),
            "strategy {strategy}: the optimized plan's witness bag differs from the reference"
        );

        // Provenance equivalence (as a set, since strategies may differ in
        // how often they repeat a provenance combination).
        let got = project_named(&result, &reference_columns);
        assert_eq!(
            got, reference_rows,
            "strategy {strategy} disagrees with the tracer"
        );

        // Result preservation: the distinct original tuples are exactly the
        // distinct rewritten tuples projected on the original attributes.
        let original_columns = original.schema().names();
        let mut expected = project_named(&original, &original_columns);
        expected.dedup_by(|a, b| Tuple::new(a.clone()).null_safe_eq(&Tuple::new(b.clone())));
        let preserved = project_named(&result, &original_columns);
        assert_eq!(
            preserved, expected,
            "strategy {strategy} does not preserve the original result"
        );
    }
    for strategy in expect_applicable {
        assert!(
            applicable.contains(strategy),
            "expected {strategy} to be applicable, but it was rejected"
        );
    }
}

#[test]
fn uncorrelated_any_sublink_selection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Eq, sub))
        .build();
    assert_strategies_match_tracer(
        &db,
        &q,
        &[Strategy::Gen, Strategy::Left, Strategy::Move, Strategy::Unn],
    );
}

#[test]
fn uncorrelated_all_sublink_selection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project_columns(&["a"])
        .build();
    let q = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(all_sublink(col("c"), CompareOp::Gt, sub))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn uncorrelated_exists_sublink_selection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(col("c"), lit(2)))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(sub))
        .build();
    assert_strategies_match_tracer(
        &db,
        &q,
        &[Strategy::Gen, Strategy::Left, Strategy::Move, Strategy::Unn],
    );
}

#[test]
fn uncorrelated_exists_over_empty_sublink() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(col("c"), lit(999)))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(sub))
        .build();
    // Empty sublink: no original tuples survive, so the provenance relation
    // is empty for every strategy.
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn negated_sublink_selection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(not(any_sublink(col("a"), CompareOp::Eq, sub)))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn figure3_q3_disjunction_with_negated_all() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .select(not(eq(col("c"), lit(1))))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(or(
            eq(col("a"), lit(3)),
            not(all_sublink(col("a"), CompareOp::Lt, sub)),
        ))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn multiple_sublinks_in_one_selection() {
    // The Section 2.5 shape: a disjunction of an ANY and an ALL sublink over
    // different relations.
    let db = figure3_db();
    let sub_r = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project_columns(&["a"])
        .build();
    let sub_s = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "u")
        .unwrap()
        .select(or(
            any_sublink(col("e"), CompareOp::Eq, sub_r),
            all_sublink(col("e"), CompareOp::Gt, sub_s),
        ))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn scalar_sublink_in_selection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .aggregate(vec![], vec![perm_algebra::builder::min(col("c"), "min_c")])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(eq(col("a"), scalar_sublink(sub)))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn correlated_exists_sublink_is_gen_only() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(col("c"), qcol("r", "a")))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(sub))
        .build();
    // Left/Move/Unn must refuse the correlated sublink.
    for strategy in [Strategy::Left, Strategy::Move, Strategy::Unn] {
        let err = ProvenanceQuery::new(&db, &q)
            .strategy(strategy)
            .rewrite()
            .unwrap_err();
        assert!(matches!(
            err,
            perm_core::ProvenanceError::NotApplicable { .. }
        ));
    }
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen]);
}

#[test]
fn correlated_any_sublink_selection() {
    let db = figure3_db();
    // σ_{a = ANY(σ_{c = b}(Π_c(S)))}(R): nested correlation through a
    // projection inside the sublink.
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(col("c"), qcol("r", "b")))
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Eq, sub))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen]);
}

/// `r(a, b)` and `s(c, d)` with everything decorrelation has to get right:
/// NULLs in the correlation columns (`r.b`, `s.c`), duplicate base rows on
/// both sides, and outer rows whose sublink is empty (`b = 7`, `b = NULL`).
fn hostile_db() -> Database {
    let int = |v: i64| Value::Int(v);
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("r", "a", DataType::Int),
                Attribute::qualified("r", "b", DataType::Int),
            ]),
            vec![
                vec![int(1), int(1)],
                vec![int(1), int(1)],
                vec![int(2), int(2)],
                vec![int(3), Value::Null],
                vec![int(4), int(7)],
                vec![Value::Null, int(2)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("s", "c", DataType::Int),
                Attribute::qualified("s", "d", DataType::Int),
            ]),
            vec![
                vec![int(1), int(1)],
                vec![int(1), int(1)],
                vec![int(1), int(3)],
                vec![int(2), Value::Null],
                vec![Value::Null, int(2)],
                vec![int(2), int(4)],
            ],
        ),
    )
    .unwrap();
    db
}

/// `σ_{s.c = r.b}(S)`, the correlated sublink body of the tests below.
fn correlated_s(db: &Database) -> PlanBuilder {
    PlanBuilder::scan(db, "s")
        .unwrap()
        .select(eq(qcol("s", "c"), qcol("r", "b")))
}

#[test]
fn gen_decorrelation_survives_nulls_duplicates_and_empty_sublinks() {
    let db = hostile_db();
    let avg_d = || {
        correlated_s(&db)
            .aggregate(vec![], vec![perm_algebra::builder::avg(col("d"), "v")])
            .build()
    };
    let count_rows = || {
        correlated_s(&db)
            .aggregate(vec![], vec![perm_algebra::builder::count_star("n")])
            .build()
    };
    let predicates = [
        ("EXISTS", exists_sublink(correlated_s(&db).build())),
        ("NOT EXISTS", not(exists_sublink(correlated_s(&db).build()))),
        (
            "IN",
            any_sublink(
                col("a"),
                CompareOp::Eq,
                correlated_s(&db).project_columns(&["d"]).build(),
            ),
        ),
        (
            "<> ALL",
            all_sublink(
                col("a"),
                CompareOp::Neq,
                correlated_s(&db).project_columns(&["d"]).build(),
            ),
        ),
        (
            "scalar avg",
            perm_algebra::builder::cmp(CompareOp::Lt, col("a"), scalar_sublink(avg_d())),
        ),
        // The COUNT bug: an empty group must still count 0.
        ("count = 0", eq(lit(0), scalar_sublink(count_rows()))),
    ];
    for (label, predicate) in predicates {
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(predicate)
            .build();
        assert_strategies_match_tracer(&db, &q, &[Strategy::Gen]);

        // And the rules did fire: nothing but the three-valued conjunct
        // itself (the scalar comparison; `<> ALL`, once per branch of the
        // split) still runs as a sublink.
        let rewritten = ProvenanceQuery::new(&db, &q)
            .strategy(Strategy::Gen)
            .rewrite()
            .unwrap();
        let (_, report) = perm_optimize::optimize(rewritten.plan());
        let allowed = match label {
            "scalar avg" | "count = 0" => 1,
            "<> ALL" => 2,
            _ => 0,
        };
        assert!(
            report.sublinks_remaining <= allowed,
            "{label}: {}",
            report.summary()
        );
    }
}

/// Left and Move over the hostile tables: their `⟕_{Jsub}` is filtered
/// below the join and `Jsub` collapsed by the optimizer, which must not
/// show — `NOT IN` over a sublink result with a NULL (no row qualifies),
/// over one without (NULL test values drop out), and `ALL` over an empty
/// sublink (every row qualifies, with an all-NULL witness).
#[test]
fn uncorrelated_not_in_with_nulls_and_all_over_an_empty_sublink() {
    let db = hostile_db();
    let s = |predicate: Option<perm_algebra::Expr>| {
        let scan = PlanBuilder::scan(&db, "s").unwrap();
        match predicate {
            Some(p) => scan.select(p),
            None => scan,
        }
        .project_columns(&["d"])
        .build()
    };
    let not_null = perm_algebra::builder::is_not_null(col("d"));
    let predicates = [
        all_sublink(col("a"), CompareOp::Neq, s(None)),
        not(any_sublink(col("a"), CompareOp::Eq, s(None))),
        all_sublink(col("a"), CompareOp::Neq, s(Some(not_null.clone()))),
        not(any_sublink(col("a"), CompareOp::Eq, s(Some(not_null)))),
        all_sublink(col("a"), CompareOp::Lt, s(Some(eq(col("c"), lit(999))))),
        any_sublink(col("a"), CompareOp::Lt, s(Some(eq(col("c"), lit(999))))),
    ];
    for predicate in predicates {
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(predicate)
            .build();
        assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
    }
}

#[test]
fn sublink_in_projection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project(vec![
            ProjectItem::column("a"),
            ProjectItem::new(any_sublink(col("a"), CompareOp::Eq, sub), "in_s"),
        ])
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn correlated_scalar_sublink_in_projection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(col("c"), qcol("r", "b")))
        .project_columns(&["d"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project(vec![
            ProjectItem::column("a"),
            ProjectItem::new(scalar_sublink(sub), "matched_d"),
        ])
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen]);
}

#[test]
fn nested_sublinks_selection() {
    let db = figure3_db();
    // σ_{a = ANY(σ_{c = ANY(Π_e(U))}(Π_c(S)))}(R): a sublink inside a sublink.
    let inner = PlanBuilder::scan(&db, "u")
        .unwrap()
        .project_columns(&["e"])
        .build();
    let middle = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .select(any_sublink(col("c"), CompareOp::Eq, inner))
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Eq, middle))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn sublink_above_aggregation_having_style() {
    let db = figure3_db();
    // HAVING-style query: group R by b, keep groups whose sum(a) equals some
    // value of U.e (an uncorrelated ANY sublink over the aggregate output).
    let sub = PlanBuilder::scan(&db, "u")
        .unwrap()
        .project_columns(&["e"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .aggregate(
            vec![ProjectItem::column("b")],
            vec![perm_algebra::builder::sum(col("a"), "sum_a")],
        )
        .select(any_sublink(col("sum_a"), CompareOp::Eq, sub))
        .build();
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn sublink_over_join_input() {
    let db = figure3_db();
    let joined = PlanBuilder::scan(&db, "r")
        .unwrap()
        .join(
            PlanBuilder::scan(&db, "s").unwrap().build(),
            eq(col("a"), col("c")),
        )
        .build();
    let sub = PlanBuilder::scan(&db, "u")
        .unwrap()
        .project_columns(&["e"])
        .build();
    let q = PlanBuilder::from_plan(joined)
        .select(any_sublink(col("a"), CompareOp::Eq, sub))
        .build();
    assert_strategies_match_tracer(
        &db,
        &q,
        &[Strategy::Gen, Strategy::Left, Strategy::Move, Strategy::Unn],
    );
}

#[test]
fn projection_on_top_of_sublink_selection() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Eq, sub))
        .project_columns(&["b"])
        .build();
    assert_strategies_match_tracer(
        &db,
        &q,
        &[Strategy::Gen, Strategy::Left, Strategy::Move, Strategy::Unn],
    );
}

#[test]
fn auto_strategy_always_applies() {
    let db = figure3_db();
    let correlated_sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .select(eq(col("c"), qcol("r", "a")))
        .build();
    let uncorrelated_sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    for q in [
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(correlated_sub))
            .build(),
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, uncorrelated_sub))
            .build(),
    ] {
        let rewritten = ProvenanceQuery::new(&db, &q)
            .strategy(Strategy::Auto)
            .rewrite()
            .expect("Auto must always find an applicable strategy");
        let executor = Executor::new(&db);
        let result = executor.execute(rewritten.plan()).unwrap();
        let tracer = Tracer::new(&db);
        let traced = tracer.trace(&q).unwrap();
        let columns = traced.schema().names();
        assert_eq!(
            project_named(&result, &columns),
            project_named(&traced, &columns)
        );
    }
}

#[test]
fn provenance_schema_names_follow_the_perm_convention() {
    let db = figure3_db();
    let sub = PlanBuilder::scan(&db, "s")
        .unwrap()
        .project_columns(&["c"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Eq, sub))
        .build();
    let rewritten = ProvenanceQuery::new(&db, &q)
        .strategy(Strategy::Left)
        .rewrite()
        .unwrap();
    assert_eq!(
        rewritten.plan().schema().names(),
        ["a", "b", "prov_r_a", "prov_r_b", "prov_s_c", "prov_s_d"].map(Name::from)
    );
    assert_eq!(rewritten.descriptor().entries().len(), 2);
    assert_eq!(
        rewritten.original_schema().names(),
        ["a", "b"].map(Name::from)
    );
}

#[test]
fn repeated_base_relation_gets_distinct_occurrences() {
    let db = figure3_db();
    // σ_{a = ANY(Π_a(R))}(R): the same relation is both the input and the
    // sublink source; its two accesses must get distinct provenance columns.
    let sub = PlanBuilder::scan(&db, "r")
        .unwrap()
        .project_columns(&["a"])
        .build();
    let q = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(col("a"), CompareOp::Eq, sub))
        .build();
    let rewritten = ProvenanceQuery::new(&db, &q)
        .strategy(Strategy::Gen)
        .rewrite()
        .unwrap();
    let names = rewritten.plan().schema().names();
    assert!(names.contains(&"prov_r_a".into()));
    assert!(names.contains(&"prov_1_r_a".into()));
    assert_strategies_match_tracer(&db, &q, &[Strategy::Gen, Strategy::Left, Strategy::Move]);
}

#[test]
fn a_reused_tracer_traces_each_plan_as_a_fresh_one_would() {
    // Two different plans alive at once, traced by one tracer: neither the
    // witness-column numbering nor a sublink result of one may leak into
    // the other. The rewriter names the columns the same way.
    let db = figure3_db();
    let s = || PlanBuilder::scan(&db, "s").unwrap();
    let any = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(
            col("a"),
            CompareOp::Eq,
            s().project_columns(&["c"]).build(),
        ))
        .build();
    let exists = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(exists_sublink(
            s().select(eq(col("c"), qcol("r", "b"))).build(),
        ))
        .build();
    let reused = Tracer::new(&db);
    for plan in [&any, &exists, &any] {
        let got = reused.trace(plan).unwrap();
        let want = Tracer::new(&db).trace(plan).unwrap();
        assert_eq!(got.schema(), want.schema());
        assert!(got.bag_eq(&want));
        let rewritten = ProvenanceQuery::new(&db, plan).rewrite().unwrap();
        assert_eq!(got.schema().names(), rewritten.plan().schema().names());
    }
}

/// `r(a, b)`, `s(c)`, `t(d)` for the nested-test-expression shapes, small
/// enough for the brute-force Definition 2 checker. `BruteForce` enumerates
/// subsets: it credits an aggregate only with the tuples that reproduce its
/// value on their own, and by maximality it admits the tuples a sublink's
/// selection drops; the tracer (Figure 2) credits the whole group and only
/// the rows the sublink returns. So `s` holds one row and `t` no row that
/// `d < 4` drops: there both readings coincide.
fn nested_db() -> Database {
    let mut db = Database::new();
    let table = |name: &str, cols: &[&str], rows: &[&[i64]]| {
        Relation::from_rows(
            Schema::from_names(cols).with_qualifier(name),
            rows.iter()
                .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
                .collect(),
        )
    };
    db.create_table("r", table("r", &["a", "b"], &[&[1, 1], &[2, 1], &[3, 2]]))
        .unwrap();
    db.create_table("s", table("s", &["c"], &[&[3]])).unwrap();
    db.create_table("t", table("t", &["d"], &[&[1], &[3]]))
        .unwrap();
    db
}

/// The distinct non-NULL values of the named columns over the rows of
/// `rel` whose first `key.len()` columns equal `key`.
fn witness_of(rel: &Relation, key: &Tuple, columns: &[&str]) -> Vec<Tuple> {
    let positions: Vec<usize> = columns
        .iter()
        .map(|&c| rel.schema().resolve(None, c.into()).unwrap())
        .collect();
    let mut out: Vec<Tuple> = rel
        .tuples()
        .iter()
        .filter(|t| (0..key.arity()).all(|i| t.get(i).null_safe_eq(key.get(i))))
        .map(|t| Tuple::new(positions.iter().map(|&i| t.get(i).clone()).collect()))
        .filter(|t| !t.values().iter().all(Value::is_null))
        .collect();
    out.sort_by(|a, b| a.sort_key(b));
    out.dedup_by(|a, b| a.null_safe_eq(b));
    out
}

#[test]
fn a_sublink_in_a_test_expression_is_witnessed_as_definition2_requires() {
    let db = nested_db();
    let over_s = |filter: Option<perm_algebra::Expr>, agg| {
        let scan = PlanBuilder::scan(&db, "s").unwrap();
        let scan = match filter {
            Some(f) => scan.select(f),
            None => scan,
        };
        scan.aggregate(vec![], vec![agg]).build()
    };
    let t = |filter: Option<perm_algebra::Expr>| {
        let scan = PlanBuilder::scan(&db, "t").unwrap();
        match filter {
            Some(f) => scan.select(f),
            None => scan,
        }
        .build()
    };
    let max_c = || perm_algebra::builder::max(col("c"), "m");
    let shapes: Vec<(perm_algebra::Expr, perm_algebra::Expr)> = {
        // (SELECT max(c) FROM s) = ANY (SELECT d FROM t)
        let inner = scalar_sublink(over_s(None, max_c()));
        let a = (any_sublink(inner.clone(), CompareOp::Eq, t(None)), inner);
        // a + (SELECT min(c) FROM s) > ALL (SELECT d FROM t WHERE d < 4)
        let inner = scalar_sublink(over_s(None, perm_algebra::builder::min(col("c"), "m")));
        let test =
            perm_algebra::builder::binary(perm_algebra::BinaryOp::Add, col("a"), inner.clone());
        let b = (
            all_sublink(
                test,
                CompareOp::Gt,
                t(Some(perm_algebra::builder::cmp(
                    CompareOp::Lt,
                    col("d"),
                    lit(4),
                ))),
            ),
            inner,
        );
        // (SELECT max(c) FROM s WHERE c > r.a) = ANY (SELECT d FROM t)
        let inner = scalar_sublink(over_s(
            Some(perm_algebra::builder::cmp(
                CompareOp::Gt,
                col("c"),
                qcol("r", "a"),
            )),
            max_c(),
        ));
        let c = (any_sublink(inner.clone(), CompareOp::Eq, t(None)), inner);
        vec![a, b, c]
    };
    let input_schema = db.table_schema("r").unwrap().with_qualifier("r");
    for (condition, nested) in shapes {
        let plan = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(condition.clone())
            .build();
        assert_strategies_match_tracer(&db, &plan, &[Strategy::Gen]);
        let traced = Tracer::new(&db).trace(&plan).unwrap();
        let auto = ProvenanceQuery::new(&db, &plan)
            .strategy(Strategy::Auto)
            .rewrite()
            .unwrap();
        let columns = traced.schema().names();
        assert_eq!(
            project_named(&Executor::new(&db).execute(auto.plan()).unwrap(), &columns),
            project_named(&traced, &columns),
            "Auto disagrees with the tracer on {condition}"
        );
        let checker = BruteForce::new(&db, &plan)
            .input("r")
            .sublink_input("t")
            .sublink_input("s");
        let results = Executor::new(&db).execute(&plan).unwrap();
        assert!(!results.is_empty(), "{condition} selects nothing");
        for row in results.distinct().tuples() {
            let witnesses = checker
                .definition2_witnesses(row, &[condition.clone(), nested.clone()], &input_schema)
                .unwrap();
            assert_eq!(witnesses.len(), 1, "{condition}: Definition 2 is unique");
            let expected: Vec<Vec<Tuple>> = witnesses[0]
                .iter()
                .map(|rel| {
                    let mut rows = rel.distinct().tuples().to_vec();
                    rows.sort_by(|a, b| a.sort_key(b));
                    rows
                })
                .collect();
            let got = vec![
                witness_of(&traced, row, &["prov_r_a", "prov_r_b"]),
                witness_of(&traced, row, &["prov_t_d"]),
                witness_of(&traced, row, &["prov_s_c"]),
            ];
            assert_eq!(got, expected, "{condition} at {row}");
        }
    }
}
