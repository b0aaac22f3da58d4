//! `ORDER BY` below the witness fan-out: the optimizer moves a `Sort`
//! through projections and onto the left side of joins and cross products,
//! and that must be invisible as a *list* — not merely as a bag — because a
//! `LIMIT` above reads a prefix of it. Every pushed shape is compared row by
//! row against the reference interpreter on the plan as bound, resident and
//! under a 256 KiB budget with spilling; every shape the rule cannot prove
//! keeps its `Sort` where it was.

use perm::prelude::*;
use perm::SessionConfig;
use perm_algebra::builder::{col, eq, qcol, scalar_sublink, PlanBuilder};
use perm_algebra::{JoinKind, Plan, ProjectItem, SetOpKind, SortKey};

/// `t(id, k, n, g)` — `k` nearly distinct, `n` all ties and NULLs, `g` the
/// join attribute —, `u(id, g, w)` matching four fifths of `t` three times
/// over, and the three-row `c(z)`.
fn database() -> Database {
    let int_or_null = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let mut db = Database::new();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::from_names(&["id", "k", "n", "g"]).with_qualifier("t"),
            (0..3000i64)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int((i * 7919) % 1013),
                        int_or_null((i % 5 != 0).then_some(i % 3)),
                        Value::Int(i % 50),
                    ]
                })
                .collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "u",
        Relation::from_rows(
            Schema::from_names(&["id", "g", "w"]).with_qualifier("u"),
            (0..120i64)
                .map(|i| vec![Value::Int(i), Value::Int(i % 40), Value::Int(i % 7)])
                .collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "c",
        Relation::from_rows(
            Schema::from_names(&["z"]).with_qualifier("c"),
            (0..3i64).map(|i| vec![Value::Int(i)]).collect(),
        ),
    )
    .unwrap();
    db
}

/// One query shape: the join its optimized plan sorts below (`None`: a
/// cross product), its text up to `ORDER BY`, whether it is asked for with
/// provenance, and its four orderings — ascending, descending, two keys, a
/// key that is all ties and NULLs.
struct Shape {
    name: &'static str,
    join: Option<JoinKind>,
    provenance: bool,
    select: &'static str,
    orderings: [&'static str; 4],
}

const LEFT_KEYS: [&str; 4] = ["t.k", "t.k DESC", "t.n, t.k DESC", "t.n"];

const SHAPES: [Shape; 6] = [
    Shape {
        name: "inner join",
        join: Some(JoinKind::Inner),
        provenance: true,
        select: "SELECT t.id, t.k, t.n, u.w FROM t JOIN u ON t.g = u.g",
        orderings: LEFT_KEYS,
    },
    Shape {
        name: "left outer join",
        join: Some(JoinKind::LeftOuter),
        provenance: true,
        select: "SELECT t.id, t.k, t.n, u.w FROM t LEFT JOIN u ON t.g = u.g",
        orderings: LEFT_KEYS,
    },
    Shape {
        name: "semi join",
        join: Some(JoinKind::Semi),
        provenance: false,
        select: "SELECT t.id, t.k, t.n FROM t WHERE EXISTS (SELECT * FROM u WHERE u.g = t.g)",
        orderings: LEFT_KEYS,
    },
    Shape {
        name: "anti join",
        join: Some(JoinKind::Anti),
        provenance: false,
        select: "SELECT t.id, t.k, t.n FROM t \
                 WHERE NOT EXISTS (SELECT * FROM u WHERE u.g = t.g AND u.w > 2)",
        orderings: LEFT_KEYS,
    },
    Shape {
        name: "cross product",
        join: None,
        provenance: true,
        select: "SELECT t.id, t.k, t.n, c.z FROM t, c",
        orderings: LEFT_KEYS,
    },
    // Rule R5: `γ ⟕ Π(T⁺)` — the sort lands on the aggregate.
    Shape {
        name: "aggregate",
        join: Some(JoinKind::LeftOuter),
        provenance: true,
        select: "SELECT id, n, g, count(*) AS cnt FROM t GROUP BY id, n, g",
        orderings: ["g", "g DESC", "cnt, g DESC", "n"],
    },
];

fn is_product(plan: &Plan) -> bool {
    matches!(plan, Plan::Join { .. } | Plan::CrossProduct { .. })
}

fn contains(plan: &Plan, pred: &dyn Fn(&Plan) -> bool) -> bool {
    pred(plan) || plan.children().iter().any(|c| contains(c, pred))
}

/// `true` when some `Sort` of `plan` still has a join or cross product
/// below it.
fn sorts_above_a_product(plan: &Plan) -> bool {
    contains(
        plan,
        &|p| matches!(p, Plan::Sort { input, .. } if contains(input, &is_product)),
    )
}

#[test]
fn a_pushed_sort_yields_the_reference_rows_in_the_reference_order() {
    let db = database();
    let mut cases = 0;
    for shape in &SHAPES {
        for ordering in shape.orderings {
            for limit in ["", " LIMIT 7"] {
                let sql = format!("{} ORDER BY {ordering}{limit}", shape.select);
                let label = format!("{}: `{sql}`", shape.name);
                let mut reference: Option<Relation> = None;
                for budget in [None, Some(256u64 << 10)] {
                    let session = Session::with_config(
                        &db,
                        SessionConfig {
                            memory_budget: budget,
                            spill: budget.is_some(),
                            ..SessionConfig::default()
                        },
                    );
                    let prepared = if shape.provenance {
                        session.prepare_provenance(&sql)
                    } else {
                        session.prepare(&sql)
                    }
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let report = prepared.optimizer_report();
                    assert!(report.sorts_pushed >= 1, "{label}: {}", report.summary());
                    assert!(
                        contains(prepared.plan(), &|p| match (p, shape.join) {
                            (Plan::Join { kind, .. }, Some(expected)) => *kind == expected,
                            (Plan::CrossProduct { .. }, None) => true,
                            _ => false,
                        }),
                        "{label}: not the shape under test\n{}",
                        perm_algebra::display::explain(prepared.plan())
                    );
                    assert!(
                        !sorts_above_a_product(prepared.plan()),
                        "{label}: a sort is left above a join\n{}",
                        perm_algebra::display::explain(prepared.plan())
                    );
                    let want = reference.get_or_insert_with(|| {
                        Executor::new(&db)
                            .execute_unoptimized(prepared.bound_plan())
                            .unwrap_or_else(|e| panic!("{label}: reference failed: {e}"))
                    });
                    let got = session
                        .execute(&prepared, &[])
                        .unwrap_or_else(|e| panic!("{label} under {budget:?}: {e}"));
                    assert!(!got.is_empty(), "{label}: the case must have rows");
                    assert!(
                        got.tuples() == want.tuples(),
                        "{label} under {budget:?}: the row sequence differs from the reference"
                    );
                    if budget.is_some() {
                        assert!(
                            session.stats().spilled_bytes > 0,
                            "{label}: the budget must force a spill"
                        );
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 6 * 4 * 2 * 2);
}

/// The optimized form of `plan`, asserted to keep a `Sort` directly over
/// an operator `over` accepts.
fn assert_sort_stays(label: &str, plan: &Plan, over: &dyn Fn(&Plan) -> bool) {
    let (optimized, report) = perm_optimize::optimize(plan);
    assert!(
        contains(
            &optimized,
            &|p| matches!(p, Plan::Sort { input, .. } if over(input))
        ),
        "{label}: the sort moved ({})\n{}",
        report.summary(),
        perm_algebra::display::explain(&optimized)
    );
}

#[test]
fn a_sort_the_rule_cannot_prove_stays_where_it_was_written() {
    let db = database();
    let session = Session::new(&db);

    // Keys the left side alone does not define, or that can fail: the sort
    // stays above the join (below the projection is still "above").
    for order_by in ["u.w", "t.k, u.w", "t.k / t.n"] {
        let sql =
            format!("SELECT t.id, t.k, t.n, u.w FROM t JOIN u ON t.g = u.g ORDER BY {order_by}");
        let prepared = session
            .prepare_provenance(&sql)
            .unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert!(
            contains(prepared.plan(), &|p| matches!(
                p,
                Plan::Sort { input, .. } if is_product(input)
            )),
            "ORDER BY {order_by}: the sort must sit on the join\n{}",
            perm_algebra::display::explain(prepared.plan())
        );
    }

    let scan = |table: &str| PlanBuilder::scan(&db, table).unwrap();
    let joined = || scan("t").join(scan("u").build(), eq(qcol("t", "g"), qcol("u", "g")));
    let by_k = || vec![SortKey::asc(qcol("t", "k"))];

    // `Π_S` deduplicates in first-encounter order: not order-preserving.
    let distinct = joined()
        .project_distinct(vec![
            ProjectItem::new(qcol("t", "k"), "k").with_qualifier("t"),
            ProjectItem::new(qcol("t", "n"), "n").with_qualifier("t"),
        ])
        .sort(by_k())
        .build();
    assert_sort_stays("Π_S", &distinct, &|p| {
        matches!(p, Plan::Project { distinct: true, .. })
    });

    // A projection item that holds a sublink (rules L2/T2 rewrite these).
    let heaviest = scan("u")
        .select(eq(qcol("u", "g"), qcol("t", "g")))
        .aggregate(vec![], vec![perm_algebra::builder::max(col("w"), "m")])
        .build();
    let sublink_item = joined()
        .project(vec![
            ProjectItem::new(qcol("t", "k"), "k").with_qualifier("t"),
            ProjectItem::new(scalar_sublink(heaviest), "m"),
        ])
        .sort(by_k())
        .build();
    assert_sort_stays("sublink item", &sublink_item, &|p| {
        matches!(p, Plan::Project { .. })
    });

    // A set operation concatenates its inputs: neither side's order is the
    // output's.
    let ids = |table: &str| scan(table).project_columns(&["id"]).build();
    let union = PlanBuilder::from_plan(ids("t"))
        .set_op(SetOpKind::Union, true, ids("u"))
        .sort(vec![SortKey::asc(col("id"))])
        .build();
    assert_sort_stays("set operation", &union, &|p| {
        matches!(p, Plan::SetOp { .. })
    });

    // `g` names a column on both sides: ambiguous in `L ∘ R`, an error at
    // run time with or without the optimizer.
    let ambiguous = joined().sort(vec![SortKey::asc(col("g"))]).build();
    assert_sort_stays("ambiguous key", &ambiguous, &is_product);
    let executor = Executor::new(&db);
    assert!(executor.execute_unoptimized(&ambiguous).is_err());
    assert!(executor
        .execute(&perm_optimize::optimize(&ambiguous).0)
        .is_err());
}

#[test]
fn an_external_sort_over_many_runs_keeps_the_stable_order() {
    // 56 batches of rows under a budget smaller than one batch: every batch
    // becomes a run, and the keys are nothing but ties — `n` has four
    // values — so the merge's tie-break decides almost every row.
    let mut db = Database::new();
    let rows: Vec<Vec<Value>> = (0..56 * 1024i64)
        .map(|i| {
            let n = if i % 7 == 0 {
                Value::Null
            } else {
                Value::Int(i % 3)
            };
            vec![Value::Int(i), n]
        })
        .collect();
    let schema = Schema::from_names(&["id", "n"]).with_qualifier("big");
    db.create_table("big", Relation::from_rows(schema, rows.clone()))
        .unwrap();
    let sql = "SELECT id, n FROM big ORDER BY n DESC";

    let resident = Session::new(&db).run(sql).unwrap();
    let spilling = Session::with_config(
        &db,
        SessionConfig {
            memory_budget: Some(16 << 10),
            spill: true,
            ..SessionConfig::default()
        },
    );
    let spilled = spilling.run(sql).unwrap();
    let stats = spilling.stats();
    assert!(
        stats.spill_partitions >= 48,
        "{} runs",
        stats.spill_partitions
    );
    assert!(spilled.tuples() == resident.tuples());

    // And both are the stable order: descending `n` (NULL sorts lowest),
    // input order inside every tie.
    let mut expected = rows;
    expected.sort_by(|a, b| b[1].sort_key(&a[1]));
    let expected: Vec<Tuple> = expected.into_iter().map(Tuple::new).collect();
    assert!(resident.tuples() == expected.as_slice());
}
