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
//! every strategy, the seven `tpch_fig6` templates under Auto — and compares
//! the fingerprint of the rewritten plan, the fingerprint of the optimized
//! plan and every field of the [`OptimizerReport`] with the recorded ones.
//!
//! A deliberate change to a rewrite or optimizer rule moves some of these;
//! re-record the affected rows and name them in the change's notes.
//!
//! A second test pins the sharing itself: a statement prepared from a plan
//! holds the caller's subtrees, and its optimized plan the subtrees the
//! optimizer left alone.

use perm::core::{ProvenanceQuery, Strategy};
use perm::exec::optimize::{optimize, plan_fingerprint, OptimizerReport};
use perm::Database;
use perm_algebra::{Plan, PlanRef};
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
    out
}

/// The recorded pins, in the order [`cases`] produces them.
const PINNED: [(&str, Pin); 21] = [
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
