//! The north-star regression: a correlated `EXISTS` provenance query under
//! `Strategy::Gen` at 200×400 — the query that spent 1.9 s re-running
//! `Tsub⁺` once per (outer row, CrossBase row) pair — must compile to a
//! join-shaped plan. Asserted on counts (sublink executions, operators),
//! never on wall time.

use perm::prelude::*;
use perm::{ProfileNode, SessionConfig};
use perm_algebra::{Expr, Plan};

const SQL: &str = "SELECT a, b, g FROM r1 WHERE EXISTS \
                   (SELECT * FROM r2 WHERE r2.b BETWEEN -20000 AND 20000 AND r2.g = r1.g)";

fn gen_session(db: &Database) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            strategy: Strategy::Gen,
            ..SessionConfig::default()
        },
    )
}

/// Executions of sublink plans anywhere in the profiled tree.
fn sublink_invocations(node: &ProfileNode) -> u64 {
    node.sublinks
        .iter()
        .map(|s| s.invocations + sublink_invocations(s))
        .sum::<u64>()
        + node.children.iter().map(sublink_invocations).sum::<u64>()
}

#[test]
fn gen_exists_at_200x400_runs_as_joins_without_executing_a_sublink() {
    let db = perm_synthetic::build_database(200, 400, 42);
    let session = gen_session(&db);
    let prepared = session.prepare_provenance(SQL).unwrap();

    // What the optimizer says it did, and what it left.
    let report = prepared.optimizer_report();
    assert_eq!(report.sublinks_remaining, 0, "{}", report.summary());
    assert_eq!(report.sublinks_decorrelated, 2, "{}", report.summary());

    // Witness bag equal to the plan exactly as Gen wrote it, run by the
    // reference interpreter.
    let (witnesses, profile) = session.execute_profiled(&prepared, &[]).unwrap();
    let reference = Executor::new(&db)
        .execute_unoptimized(prepared.bound_plan())
        .unwrap();
    assert!(!witnesses.is_empty());
    assert!(
        witnesses.bag_eq(&reference),
        "{} witness rows vs {} in the reference",
        witnesses.len(),
        reference.len()
    );

    // No sublink plan ran — not once — and the whole query is a fixed
    // handful of operators, where the per-pair plan evaluated one `Tsub⁺`
    // (four operators) per distinct binding of 80 200 pairs.
    assert_eq!(sublink_invocations(&profile.root), 0);
    let operators = profile.total_invocations();
    assert!(operators <= 24, "{operators} operators evaluated");
}

/// Whether a selection sits directly above a cross product anywhere in
/// `plan`, sublink plans included.
fn selects_over_a_product(plan: &Plan) -> bool {
    matches!(plan, Plan::Select { input, .. } if matches!(**input, Plan::CrossProduct { .. }))
        || plan.children().into_iter().any(selects_over_a_product)
        || plan.expressions().iter().any(|e| {
            e.sublinks()
                .into_iter()
                .any(|s| matches!(s, Expr::Sublink { plan, .. } if selects_over_a_product(plan)))
        })
}

#[test]
fn a_cross_base_product_the_rules_keep_is_compiled_as_a_join() {
    // A correlation through arithmetic, which no rule hoists: Gen's
    // `σ[C ∧ Csub⁺](T⁺ × CrossBase)` keeps its selection over the product,
    // and the optimizer's last step makes the pair one join — so the plan a
    // statement reports is the plan it compiled, with no product built
    // unfiltered.
    let db = perm_synthetic::build_database(20, 40, 42);
    let session = gen_session(&db);
    let prepared = session
        .prepare_provenance(
            "SELECT a, b FROM r1 WHERE NOT EXISTS (SELECT * FROM r2 WHERE r2.g = r1.g + 0)",
        )
        .unwrap();
    assert!(selects_over_a_product(prepared.bound_plan()));
    let report = prepared.optimizer_report();
    assert!(report.sublinks_remaining > 0, "{}", report.summary());
    assert!(report.selections_fused > 0, "{}", report.summary());
    assert!(
        !selects_over_a_product(prepared.plan()),
        "{}",
        perm_algebra::display::explain(prepared.plan())
    );
    let reference = Executor::new(&db)
        .execute_unoptimized(prepared.bound_plan())
        .unwrap();
    assert!(session.execute(&prepared, &[]).unwrap().bag_eq(&reference));
}

#[test]
fn explain_shows_the_join_shaped_provenance_plan() {
    let db = perm_synthetic::build_database(20, 40, 42);
    let session = gen_session(&db);
    let profile = session
        .explain(&format!("SELECT PROVENANCE {}", &SQL[7..]))
        .unwrap();
    let bound = profile.bound_plan.as_deref().unwrap();
    let optimized = profile.optimized_plan.as_deref().unwrap();
    let rules = profile.optimizer.as_deref().unwrap();
    assert!(
        bound.contains("CrossProduct") && bound.contains("Sublink EXISTS"),
        "{bound}"
    );
    assert!(
        !optimized.contains("CrossProduct") && !optimized.contains("Sublink"),
        "{optimized}"
    );
    for rule in ["decorrelate×2", "imply×", "semi-expand×1"] {
        assert!(rules.contains(rule), "{rules}");
    }
    assert!(!rules.contains("remain"), "{rules}");
}
