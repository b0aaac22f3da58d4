//! Plan identity pin: the provenance rewrite and the optimizer produce the
//! same plans, fired rules and fingerprints as when these constants were
//! recorded.
//!
//! The benchmark's `tpch_fig6` workload chooses each template's
//! instantiation by counting execution checkpoints, and every workload
//! checks digests against committed files, so a change to how plans are
//! represented or rewritten must leave every plan bit-identical. This test
//! rewrites and optimizes one fixed instance of each benchmark query shape —
//! the five `synth_corr` SQL kinds under Gen, `synth_uncorr` q1 / q2 under
//! every strategy, the seven `tpch_fig6` templates under Auto — plus the
//! sublink rules those shapes do not reach (G2, L2 and T2 on a Π with three
//! sublinks, U1, a σ with two sublinks, a sublink in a test expression), and
//! compares the fingerprint of the rewritten plan, the fingerprint of the
//! optimized plan and every field of the [`OptimizerReport`] with the
//! recorded ones. A third test pins the errors of strategies that do not
//! apply.
//!
//! A deliberate change to a rewrite or optimizer rule moves some of these;
//! re-record the affected rows and name them in the change's notes.
//!
//! Another test pins the sharing itself: a statement prepared from a plan
//! holds the caller's subtrees, and its optimized plan the subtrees the
//! optimizer left alone.

use perm::core::{ProvenanceError, ProvenanceQuery, Strategy};
use perm::exec::optimize::{optimize, plan_fingerprint, OptimizerReport};
use perm::Database;
use perm_algebra::builder::{
    any_sublink, between, cmp, col, lit, max, scalar_sublink, PlanBuilder,
};
use perm_algebra::{CompareOp, Plan, PlanRef};
use perm_synthetic::{build_database, query_q1, query_q2, RangeParams};
use perm_tpch::{generate, sublink_queries, TpchScale};

/// Every field of a report, in declaration order.
fn report_fields(report: &OptimizerReport) -> [u64; 15] {
    let OptimizerReport {
        sublinks_decorrelated,
        sublinks_implied,
        disjunctions_split,
        aggregates_grouped,
        joins_pushed,
        semi_joins_expanded,
        preserved_side_pushed,
        constants_folded,
        predicates_pushed,
        projections_pruned,
        projections_composed,
        sorts_pushed,
        selections_fused,
        sublinks_remaining,
        passes,
    } = *report;
    [
        sublinks_decorrelated,
        sublinks_implied,
        disjunctions_split,
        aggregates_grouped,
        joins_pushed,
        semi_joins_expanded,
        preserved_side_pushed,
        constants_folded,
        predicates_pushed,
        projections_pruned,
        projections_composed,
        sorts_pushed,
        selections_fused,
        sublinks_remaining,
        passes,
    ]
}

/// One pinned case: (rewritten fingerprint, optimized fingerprint, report).
type Pin = (u64, u64, [u64; 15]);

fn observe(db: &Database, bound: &Plan, strategy: Strategy) -> Pin {
    let rewritten = ProvenanceQuery::new(db, bound)
        .strategy(strategy)
        .rewrite()
        .expect("rewrites");
    let (optimized, report) = optimize(rewritten.plan());
    (
        plan_fingerprint(rewritten.plan()),
        plan_fingerprint(&optimized),
        report_fields(&report),
    )
}

fn sql_plan(db: &Database, sql: &str) -> Plan {
    perm::sql::compile(db, sql).expect("binds").0
}

/// Every case: its name and what it produces now.
fn cases() -> Vec<(String, Pin)> {
    let mut out = Vec::new();

    // synth_corr: the q3 family as SQL under Gen.
    let small = build_database(80, 160, 42);
    let large = build_database(110, 220, 142);
    let exists = |lo: i64, hi: i64, not: &str| {
        format!(
            "SELECT a, b, g FROM r1 WHERE {not}EXISTS \
             (SELECT * FROM r2 WHERE r2.b BETWEEN {lo} AND {hi} AND r2.g = r1.g)"
        )
    };
    let corr: [(&str, &Database, String); 5] = [
        ("exists_80x160", &small, exists(100, 700, "")),
        ("exists_110x220", &large, exists(150, 750, "")),
        ("not_exists_80x160", &small, exists(400, 420, "NOT ")),
        (
            "scalar_avg_80x160",
            &small,
            "SELECT a, b, g FROM r1 WHERE b < (SELECT avg(b) FROM r2 WHERE r2.g = r1.g)"
                .to_string(),
        ),
        (
            "in_corr_80x160",
            &small,
            "SELECT a, b, g FROM r1 WHERE g IN \
             (SELECT g FROM r2 WHERE r2.g = r1.g AND r2.b BETWEEN 100 AND 700)"
                .to_string(),
        ),
    ];
    for (name, db, sql) in corr {
        out.push((
            format!("synth_corr {name}"),
            observe(db, &sql_plan(db, &sql), Strategy::Gen),
        ));
    }

    // synth_uncorr: q1 (`= ANY`) and q2 (`< ALL`) as plans, every strategy
    // that applies.
    let uncorr = build_database(1000, 250, 42);
    let params = RangeParams {
        r1_low: 100,
        r1_high: 300,
        r2_low: 200,
        r2_high: 400,
    };
    let strategies = [
        Strategy::Gen,
        Strategy::Left,
        Strategy::Move,
        Strategy::Unn,
        Strategy::Auto,
    ];
    for (q, plan) in [
        ("q1", query_q1(&uncorr, params)),
        ("q2", query_q2(&uncorr, params)),
    ] {
        for strategy in strategies {
            // Unn's rules U1/U2 do not apply to `< ALL`.
            if q == "q2" && strategy == Strategy::Unn {
                continue;
            }
            out.push((
                format!("synth_uncorr {q} {}", strategy.name()),
                observe(&uncorr, &plan, strategy),
            ));
        }
    }

    // tpch_fig6: the seven templates under Auto.
    let tpch = generate(TpchScale::new(0.0001), 42);
    for id in [4, 11, 15, 16, 17, 18, 22] {
        let template = sublink_queries()
            .into_iter()
            .find(|t| t.id == id)
            .expect("a TPC-H sublink template");
        let sql = template.instantiate(42);
        out.push((
            format!("tpch_fig6 q{id}"),
            observe(&tpch, &sql_plan(&tpch, &sql), Strategy::Auto),
        ));
    }

    // Rules the benchmark shapes do not reach, all uncorrelated unless
    // named otherwise. G2, L2 and T2: one Π holding an `= ANY`, an `EXISTS`
    // and a scalar sublink.
    let project = sql_plan(
        &small,
        "SELECT a, a = ANY (SELECT a FROM r2 WHERE r2.b BETWEEN 100 AND 700) AS hit, \
         EXISTS (SELECT * FROM r2 WHERE r2.b BETWEEN 400 AND 420) AS any_r2, \
         (SELECT max(b) FROM r2 WHERE r2.b < 500) AS top FROM r1 WHERE b BETWEEN 100 AND 300",
    );
    for strategy in [
        Strategy::Gen,
        Strategy::Left,
        Strategy::Move,
        Strategy::Auto,
    ] {
        out.push((
            format!("project three sublinks {}", strategy.name()),
            observe(&small, &project, strategy),
        ));
    }
    // U1: a σ over an `EXISTS`.
    let exists = sql_plan(
        &small,
        "SELECT a, b FROM r1 WHERE EXISTS (SELECT * FROM r2 WHERE r2.b BETWEEN 400 AND 420)",
    );
    for strategy in [Strategy::Unn, Strategy::Auto] {
        out.push((
            format!("select exists {}", strategy.name()),
            observe(&small, &exists, strategy),
        ));
    }
    // One σ with two sublinks.
    let two = sql_plan(
        &small,
        "SELECT a, b FROM r1 WHERE a = ANY (SELECT a FROM r2 WHERE r2.b BETWEEN 100 AND 700) \
         OR b < ALL (SELECT b FROM r2 WHERE r2.b BETWEEN 400 AND 420)",
    );
    for strategy in [Strategy::Gen, Strategy::Left, Strategy::Move] {
        out.push((
            format!("select two sublinks {}", strategy.name()),
            observe(&small, &two, strategy),
        ));
    }
    // A scalar sublink in the test expression of an `= ANY`.
    let nested = nested_test_expression(&small);
    for strategy in [Strategy::Gen, Strategy::Auto] {
        out.push((
            format!("select nested test expression {}", strategy.name()),
            observe(&small, &nested, strategy),
        ));
    }
    out
}

/// `σ_{(SELECT max(b) FROM r2 WHERE b < 500) = ANY (SELECT b FROM r2 WHERE
/// b BETWEEN 100 AND 700)}(r1)`: a sublink inside another sublink's test
/// expression, which only Gen rewrites.
fn nested_test_expression(db: &Database) -> Plan {
    let r2 = |predicate| {
        PlanBuilder::scan(db, "r2")
            .expect("r2 exists")
            .select(predicate)
    };
    let top = r2(cmp(CompareOp::Lt, col("b"), lit(500)))
        .aggregate(vec![], vec![max(col("b"), "top")])
        .build();
    let window = r2(between(col("b"), lit(100), lit(700)))
        .project_columns(&["b"])
        .build();
    PlanBuilder::scan(db, "r1")
        .expect("r1 exists")
        .select(any_sublink(scalar_sublink(top), CompareOp::Eq, window))
        .build()
}

/// The recorded pins, in the order [`cases`] produces them.
const PINNED: [(&str, Pin); 32] = [
    (
        "synth_corr exists_80x160",
        (
            0xfad9e88adcab3636,
            0x756beb99d369dec8,
            [2, 1, 0, 0, 1, 1, 0, 4, 1, 1, 1, 0, 0, 0, 2],
        ),
    ),
    (
        "synth_corr exists_110x220",
        (
            0xfca663949b66abce,
            0x8baa99ff417fc778,
            [2, 1, 0, 0, 1, 1, 0, 4, 1, 1, 1, 0, 0, 0, 2],
        ),
    ),
    (
        "synth_corr not_exists_80x160",
        (
            0xfb9a40e20129644c,
            0xfe7985e77e31df24,
            [3, 1, 1, 0, 2, 1, 0, 3, 11, 2, 1, 0, 0, 0, 2],
        ),
    ),
    (
        "synth_corr scalar_avg_80x160",
        (
            0xa1c8681425291a7f,
            0x96681b8652202d85,
            [1, 0, 0, 1, 0, 1, 0, 5, 0, 4, 1, 0, 0, 1, 2],
        ),
    ),
    (
        "synth_corr in_corr_80x160",
        (
            0xa854c7d6f9a3507e,
            0xa66f7bc210856c12,
            [2, 2, 0, 0, 1, 1, 0, 5, 1, 1, 1, 0, 0, 0, 2],
        ),
    ),
    (
        "synth_uncorr q1 Gen",
        (
            0x7c6be43c329db797,
            0x8669d68045b9ed1e,
            [1, 2, 0, 0, 0, 1, 0, 5, 2, 1, 2, 0, 0, 1, 2],
        ),
    ),
    (
        "synth_uncorr q1 Left",
        (
            0xf9aaf6f20111b699,
            0xa0b2c3e591b3b31e,
            [0, 1, 0, 0, 0, 0, 1, 2, 2, 1, 2, 0, 0, 1, 2],
        ),
    ),
    (
        "synth_uncorr q1 Move",
        (
            0xea439fa835672dc7,
            0xddce3b75143aee1c,
            [0, 1, 0, 0, 0, 0, 1, 2, 3, 2, 2, 0, 0, 1, 2],
        ),
    ),
    (
        "synth_uncorr q1 Unn",
        (
            0xc647ebbeeffe2e7b,
            0x6bce370badedd592,
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 0, 0, 0, 2],
        ),
    ),
    (
        "synth_uncorr q1 Auto",
        (
            0xc647ebbeeffe2e7b,
            0x6bce370badedd592,
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 0, 0, 0, 2],
        ),
    ),
    (
        "synth_uncorr q2 Gen",
        (
            0x4c83082bbfca6060,
            0x1b7ae629bea96bda,
            [2, 1, 1, 0, 2, 0, 0, 2, 15, 6, 6, 0, 2, 3, 2],
        ),
    ),
    (
        "synth_uncorr q2 Left",
        (
            0x61c5df1b58c8730c,
            0x20dd3ca556aa63f7,
            [0, 1, 0, 0, 0, 0, 1, 1, 2, 3, 2, 0, 0, 1, 2],
        ),
    ),
    (
        "synth_uncorr q2 Move",
        (
            0x594128243318ae38,
            0x7533ce089189d796,
            [0, 1, 0, 0, 0, 0, 1, 1, 3, 4, 2, 0, 0, 1, 2],
        ),
    ),
    (
        "synth_uncorr q2 Auto",
        (
            0x594128243318ae38,
            0x7533ce089189d796,
            [0, 1, 0, 0, 0, 0, 1, 1, 3, 4, 2, 0, 0, 1, 2],
        ),
    ),
    (
        "tpch_fig6 q4",
        (
            0xfa04b1d7a60d74b5,
            0x771ea7201131857a,
            [3, 1, 0, 0, 1, 1, 0, 6, 10, 3, 2, 2, 0, 0, 2],
        ),
    ),
    (
        "tpch_fig6 q11",
        (
            0xd52cbecf912a798a,
            0xf8d7c0998a3db6dc,
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 7, 2, 1, 0, 1, 2],
        ),
    ),
    (
        "tpch_fig6 q15",
        (
            0x85ff226854e1ea58,
            0x2e68036546f28117,
            [0, 0, 0, 0, 0, 0, 0, 6, 2, 15, 12, 1, 0, 1, 2],
        ),
    ),
    (
        "tpch_fig6 q16",
        (
            0xa5f2baf3c1363d85,
            0x152a80381d1c3cc8,
            [0, 1, 0, 0, 0, 0, 1, 2, 3, 7, 4, 2, 0, 2, 2],
        ),
    ),
    (
        "tpch_fig6 q17",
        (
            0x6d9878714a08031d,
            0x08ab706d107c4c0b,
            [0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 0, 1, 4, 2],
        ),
    ),
    (
        "tpch_fig6 q18",
        (
            0xbb94ff9a65360a18,
            0x677e49613c1bf717,
            [0, 0, 0, 0, 0, 0, 1, 0, 1, 6, 5, 3, 0, 2, 2],
        ),
    ),
    (
        "tpch_fig6 q22",
        (
            0x537c297144c0221b,
            0x7e972fd0b6a1a6e0,
            [0, 0, 0, 0, 0, 0, 0, 2, 1, 4, 8, 2, 1, 8, 2],
        ),
    ),
    (
        "project three sublinks Gen",
        (
            0x4bea02d33bcbd510,
            0x19234697ed2fb508,
            [1, 0, 0, 0, 1, 0, 0, 6, 4, 6, 8, 0, 1, 8, 2],
        ),
    ),
    (
        "project three sublinks Left",
        (
            0x5df12bfa5cee1d97,
            0xf6bc0e89cd793f0f,
            [0, 0, 0, 0, 0, 0, 0, 0, 4, 9, 7, 0, 0, 4, 2],
        ),
    ),
    (
        "project three sublinks Move",
        (
            0x9d61455fce964c39,
            0xd4e2ccb291c13300,
            [0, 0, 0, 0, 0, 0, 0, 0, 4, 10, 7, 0, 0, 3, 2],
        ),
    ),
    (
        "project three sublinks Auto",
        (
            0x9d61455fce964c39,
            0xd4e2ccb291c13300,
            [0, 0, 0, 0, 0, 0, 0, 0, 4, 10, 7, 0, 0, 3, 2],
        ),
    ),
    (
        "select exists Unn",
        (
            0x2615ce773d603721,
            0x777f6ed6ffeb603d,
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 3, 0, 0, 0, 2],
        ),
    ),
    (
        "select exists Auto",
        (
            0x2615ce773d603721,
            0x777f6ed6ffeb603d,
            [0, 0, 0, 0, 0, 0, 0, 0, 1, 5, 3, 0, 0, 0, 2],
        ),
    ),
    (
        "select two sublinks Gen",
        (
            0x76eeefaf7b36a872,
            0x939c451d657b6c31,
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 4, 0, 1, 8, 2],
        ),
    ),
    (
        "select two sublinks Left",
        (
            0xc14faa446f76a15f,
            0x6cef84cadb9e8741,
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 4, 5, 0, 0, 4, 2],
        ),
    ),
    (
        "select two sublinks Move",
        (
            0xe8c1f917426b6446,
            0xb5db377babb86213,
            [0, 0, 0, 0, 0, 0, 2, 0, 3, 5, 5, 0, 0, 4, 2],
        ),
    ),
    (
        "select nested test expression Gen",
        (
            0xc2af2132ec06c553,
            0xad2904ab20c79eee,
            [2, 2, 0, 0, 2, 0, 0, 10, 2, 4, 5, 0, 1, 3, 2],
        ),
    ),
    (
        "select nested test expression Auto",
        (
            0xc2af2132ec06c553,
            0xad2904ab20c79eee,
            [2, 2, 0, 0, 2, 0, 0, 10, 2, 4, 5, 0, 1, 3, 2],
        ),
    ),
];

#[test]
fn rewritten_and_optimized_plans_keep_their_identity() {
    let observed = cases();
    assert_eq!(observed.len(), PINNED.len(), "one pin per case");
    let mut moved = Vec::new();
    for ((name, pin), (pinned_name, pinned)) in observed.iter().zip(PINNED) {
        assert_eq!(name, pinned_name, "cases in pinned order");
        if *pin != pinned {
            moved.push(format!(
                "(\"{name}\", ({:#x}, {:#x}, {:?})), pinned {pinned:x?}",
                pin.0, pin.1, pin.2
            ));
        }
    }
    assert!(moved.is_empty(), "plans moved:\n{}", moved.join("\n"));
}

/// A statement prepared from a plan copies the plan's root operator only,
/// and the optimizer hands back every node it leaves alone: the caller's
/// plan, `Prepared::bound_plan` and `Prepared::plan` share their subtrees.
#[test]
fn a_prepared_plan_shares_the_subtrees_the_optimizer_left_alone() {
    let db = build_database(80, 160, 42);
    let plan = sql_plan(&db, "SELECT a, b FROM r1 WHERE b > 500");
    let prepared = perm::Session::new(&db)
        .prepare_plan(&plan)
        .expect("prepares");
    assert_eq!(prepared.optimizer_report().rules_fired(), 0);
    let shares = |a: &Plan, b: &Plan| {
        a.inputs().count() == b.inputs().count()
            && a.inputs()
                .zip(b.inputs())
                .all(|(x, y)| PlanRef::ptr_eq(x, y))
    };
    assert!(shares(&plan, prepared.bound_plan()));
    assert!(shares(prepared.bound_plan(), prepared.plan()));
}

/// The strategies that cannot rewrite an operator say so with the same kind
/// and reason: Unn has no rule for a Π, and Left none for a correlated
/// sublink.
#[test]
fn inapplicable_strategies_keep_their_errors() {
    let db = build_database(80, 160, 42);
    let error = |sql: &str, strategy| {
        let plan = sql_plan(&db, sql);
        match ProvenanceQuery::new(&db, &plan)
            .strategy(strategy)
            .rewrite()
        {
            Err(e) => e,
            Ok(_) => panic!("{strategy} rewrote {sql}"),
        }
    };
    let unn = error(
        "SELECT a, EXISTS (SELECT * FROM r2 WHERE r2.b < 500) AS any_r2 FROM r1",
        Strategy::Unn,
    );
    assert_eq!(
        unn,
        ProvenanceError::NotApplicable {
            strategy: "Unn",
            reason: "the Unn strategy only rewrites selections (rules U1 and U2)".into(),
        }
    );
    let left = error(
        "SELECT a, b, g FROM r1 WHERE EXISTS (SELECT * FROM r2 WHERE r2.g = r1.g)",
        Strategy::Left,
    );
    assert_eq!(
        left,
        ProvenanceError::NotApplicable {
            strategy: "Left",
            reason: "the EXISTS sublink over `a, b, g` is correlated or holds a sublink in its \
                     test expression; only the Gen strategy rewrites those"
                .into(),
        }
    );
}
