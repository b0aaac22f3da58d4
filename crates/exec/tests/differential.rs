//! Differential testing of the execution modes over randomly generated
//! nested-subquery plans.
//!
//! A seeded generator (the local `rand` shim, so runs are reproducible)
//! composes plans over the synthetic tables of `perm-synthetic` —
//! correlated and uncorrelated sublinks of every kind (`EXISTS`, `ANY`,
//! `ALL`, scalar), optionally nested two levels deep, under selections,
//! projections, aggregations, sorts with limits, joins and set operations.
//! Every plan is executed through
//!
//! 1. `Executor::execute` — compile + parameterized sublink memo, `ANY`/`ALL`
//!    answered from memoized probes, uncorrelated sublinks a batch at a
//!    time, with the default columnar batch layout,
//! 2. `Executor::execute` with columnar off — the same vectorized
//!    evaluator with every slot loading a `Values` lane, so each kernel
//!    takes its scalar fallback (typed kernels vs the scalar appliers),
//! 3. `Executor::execute_unoptimized` — the name-resolving interpreter
//!    (which shares the parameterized memo, resolved at runtime, and folds
//!    every `ANY`/`ALL` over its result rows), and
//! 4. `Executor::execute` with the memos disabled,
//!
//! and all results must agree bag-for-bag (or all modes must fail). The
//! batch-seam cases below add the fifth mode, batching off entirely (the
//! per-tuple compiled dispatch). Since both drivers are thin shells over
//! the shared physical-operator layer, a divergence here points at the
//! evaluator closures, the typed kernels or the memo keying — exactly the
//! parts that are *not* shared.

use perm_algebra::builder::{
    all_sublink, and, any_sublink, between, binary, cmp, count_star, eq, exists_sublink, lit, not,
    or, qcol, scalar_sublink, sum, PlanBuilder,
};
use perm_algebra::{BinaryOp, CompareOp, Expr, JoinKind, Plan, ProjectItem, SetOpKind, SortKey};
use perm_core::Strategy;
use perm_exec::{Degradation, ExecError, Executor, FaultKind, FaultPlan, FaultSite, BATCH_ROWS};
use perm_storage::{Attribute, DataType, Database, Relation, Schema, Value};
use perm_synthetic::{build_database, build_query, random_range, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const PLANS: usize = 220;

fn random_compare_op(rng: &mut StdRng) -> CompareOp {
    match rng.gen_range(0..6u32) {
        0 => CompareOp::Eq,
        1 => CompareOp::Neq,
        2 => CompareOp::Lt,
        3 => CompareOp::Le,
        4 => CompareOp::Gt,
        _ => CompareOp::Ge,
    }
}

/// A random window predicate on `r2.b` (the synthetic values are Gaussian
/// with σ = 100 · rows, so the window keeps selectivity away from 0/1).
fn random_r2_window(rng: &mut StdRng) -> perm_algebra::Expr {
    let low = rng.gen_range(-3000..1500i64);
    between(
        qcol("r2", "b"),
        lit(low),
        lit(low + rng.gen_range(500..3000i64)),
    )
}

/// A random sublink query over `r2`, correlated against the enclosing scan
/// of `r1` with the given probability; `project_a` adds the single-column
/// projection `ANY`/`ALL`/scalar sublinks need.
fn random_sublink_plan(db: &Database, rng: &mut StdRng, correlated: bool, nested: bool) -> Plan {
    let corr = match rng.gen_range(0..3u32) {
        0 => eq(qcol("r2", "g"), qcol("r1", "g")),
        1 => cmp(CompareOp::Le, qcol("r2", "b"), qcol("r1", "b")),
        _ => and(
            eq(qcol("r2", "g"), qcol("r1", "g")),
            cmp(CompareOp::Gt, qcol("r2", "a"), qcol("r1", "a")),
        ),
    };
    let window = random_r2_window(rng);
    let predicate = if correlated {
        and(window, corr)
    } else {
        window
    };
    let builder = PlanBuilder::scan_as(db, "r2", Some("r2"))
        .expect("r2 must exist")
        .select(predicate);
    if !nested {
        return builder.build();
    }
    // Nest one more sublink level: the inner query scans r2 under a fresh
    // alias and correlates against the *middle* scope (and, sometimes,
    // through to the outermost r1 scope).
    let inner_corr = if rng.gen_bool(0.5) {
        eq(qcol("m", "g"), qcol("r2", "g"))
    } else {
        and(
            eq(qcol("m", "g"), qcol("r2", "g")),
            cmp(CompareOp::Lt, qcol("m", "a"), qcol("r1", "b")),
        )
    };
    let inner = PlanBuilder::scan_as(db, "r2", Some("m"))
        .expect("r2 must exist")
        .select(inner_corr)
        .build();
    let inner_sublink = if rng.gen_bool(0.5) {
        exists_sublink(inner)
    } else {
        not(exists_sublink(inner))
    };
    builder.select(inner_sublink).build()
}

/// A random sublink *expression* usable in a selection over `r1`.
fn random_sublink_expr(db: &Database, rng: &mut StdRng) -> perm_algebra::Expr {
    let correlated = rng.gen_bool(0.6);
    let nested = rng.gen_bool(0.25);
    match rng.gen_range(0..4u32) {
        0 => {
            let sub = random_sublink_plan(db, rng, correlated, nested);
            if rng.gen_bool(0.3) {
                not(exists_sublink(sub))
            } else {
                exists_sublink(sub)
            }
        }
        1 => {
            let sub = PlanBuilder::from_plan(random_sublink_plan(db, rng, correlated, nested))
                .project_columns(&["a"])
                .build();
            let test = if rng.gen_bool(0.5) {
                qcol("r1", "a")
            } else {
                qcol("r1", "b")
            };
            any_sublink(test, random_compare_op(rng), sub)
        }
        2 => {
            let sub = PlanBuilder::from_plan(random_sublink_plan(db, rng, correlated, nested))
                .project_columns(&["a"])
                .build();
            all_sublink(qcol("r1", "a"), random_compare_op(rng), sub)
        }
        _ => {
            // Scalar sublink: the global aggregate guarantees exactly one
            // row and one attribute for every binding.
            let agg = if rng.gen_bool(0.5) {
                count_star("n")
            } else {
                sum(qcol("r2", "a"), "s")
            };
            let sub = PlanBuilder::from_plan(random_sublink_plan(db, rng, correlated, nested))
                .aggregate(vec![], vec![agg])
                .build();
            cmp(
                random_compare_op(rng),
                scalar_sublink(sub),
                lit(rng.gen_range(-4000..4000i64)),
            )
        }
    }
}

/// A random selection over `r1` whose predicate combines a sublink with an
/// optional plain range conjunct/disjunct.
fn random_filtered_r1(db: &Database, rng: &mut StdRng) -> Plan {
    let sublink = random_sublink_expr(db, rng);
    let predicate = match rng.gen_range(0..3u32) {
        0 => sublink,
        1 => {
            let low = rng.gen_range(-3000..2000i64);
            and(between(qcol("r1", "b"), lit(low), lit(low + 2000)), sublink)
        }
        _ => {
            let low = rng.gen_range(-3000..2000i64);
            or(between(qcol("r1", "b"), lit(low), lit(low + 500)), sublink)
        }
    };
    PlanBuilder::scan(db, "r1")
        .expect("r1 must exist")
        .select(predicate)
        .build()
}

/// One full random plan: a sublink selection over `r1` under a random
/// top-level shape.
fn random_plan(db: &Database, rng: &mut StdRng) -> Plan {
    let base = random_filtered_r1(db, rng);
    match rng.gen_range(0..6u32) {
        // The bare sublink selection.
        0 => base,
        // Projection, bag or set.
        1 => {
            let builder = PlanBuilder::from_plan(base);
            if rng.gen_bool(0.5) {
                builder.project_columns(&["g", "a"]).build()
            } else {
                builder
                    .project_distinct(vec![ProjectItem::column("g")])
                    .build()
            }
        }
        // Aggregation over the filtered rows.
        2 => PlanBuilder::from_plan(base)
            .aggregate(
                vec![ProjectItem::column("g")],
                vec![count_star("n"), sum(qcol("r1", "a"), "total")],
            )
            .build(),
        // Sort + limit (stable sort, shared loop ⇒ identical prefixes).
        3 => PlanBuilder::from_plan(base)
            .sort(vec![
                SortKey::desc(qcol("r1", "b")),
                SortKey::asc(qcol("r1", "a")),
            ])
            .limit(rng.gen_range(1..12usize))
            .build(),
        // Set operation between two independently filtered branches.
        4 => {
            let left = PlanBuilder::from_plan(base)
                .project_columns(&["a", "g"])
                .build();
            let right = PlanBuilder::from_plan(random_filtered_r1(db, rng))
                .project_columns(&["a", "g"])
                .build();
            let op = match rng.gen_range(0..3u32) {
                0 => SetOpKind::Union,
                1 => SetOpKind::Intersect,
                _ => SetOpKind::Except,
            };
            PlanBuilder::from_plan(left)
                .set_op(op, rng.gen_bool(0.5), right)
                .build()
        }
        // Join with a sublink-bearing condition (nested-loop path) or a
        // plain equi-join (hash path) against a second r1 alias.
        _ => {
            let other = PlanBuilder::scan_as(db, "r1", Some("o"))
                .expect("r1 must exist")
                .build();
            let join_cond = eq(qcol("r1", "g"), qcol("o", "g"));
            let builder = PlanBuilder::from_plan(base);
            if rng.gen_bool(0.5) {
                builder.join(other, join_cond).build()
            } else {
                builder.left_join(other, join_cond).build()
            }
        }
    }
}

#[test]
fn random_plans_agree_across_all_execution_modes() {
    // Small tables keep even the ALL-sublink nested loops fast; 24 × 18
    // rows with the 32-group correlation attribute still exercises memo
    // hits, NULL-free bindings and empty sublink results.
    let db = build_database(24, 18, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut correlated_hits = 0usize;
    for i in 0..PLANS {
        let plan = random_plan(&db, &mut rng);

        let compiled_ex = Executor::new(&db);
        let compiled = compiled_ex.execute(&plan);

        let values_ex = Executor::new(&db).with_columnar(false);
        let values_lane = values_ex.execute(&plan);

        let interp_ex = Executor::new(&db);
        let interpreted = interp_ex.execute_unoptimized(&plan);

        let memo_off_ex = Executor::new(&db).with_sublink_memo(false);
        let memo_off = memo_off_ex.execute(&plan);

        match (&compiled, &values_lane, &interpreted, &memo_off) {
            (Ok(a), Ok(r), Ok(b), Ok(c)) => {
                assert!(
                    a.bag_eq(r),
                    "plan {i}: columnar disagrees with Values-lane vectorized\n{}",
                    perm_algebra::display::explain(&plan)
                );
                assert!(
                    a.bag_eq(b),
                    "plan {i}: compiled+memo disagrees with the interpreter\n{}",
                    perm_algebra::display::explain(&plan)
                );
                assert!(
                    a.bag_eq(c),
                    "plan {i}: compiled+memo disagrees with memo-off\n{}",
                    perm_algebra::display::explain(&plan)
                );
                assert_eq!(
                    compiled_ex.operators_evaluated(),
                    values_ex.operators_evaluated(),
                    "plan {i}: operators_evaluated must not depend on the column layout"
                );
                if compiled_ex.operators_evaluated() < memo_off_ex.operators_evaluated() {
                    correlated_hits += 1;
                }
            }
            (Err(_), Err(_), Err(_), Err(_)) => {}
            other => panic!(
                "plan {i}: execution modes disagree on success/failure: \
                 compiled={:?} values_lane={:?} interpreted={:?} memo_off={:?}\n{}",
                other.0.as_ref().map(|_| "ok"),
                other.1.as_ref().map(|_| "ok"),
                other.2.as_ref().map(|_| "ok"),
                other.3.as_ref().map(|_| "ok"),
                perm_algebra::display::explain(&plan),
            ),
        }
    }
    // The sweep must actually exercise the memo, not just uncorrelated
    // plans: a healthy generator produces many plans where memoization
    // saves operator evaluations.
    assert!(
        correlated_hits >= PLANS / 10,
        "only {correlated_hits}/{PLANS} plans exercised the sublink memo"
    );
}

/// What the optimizer may not change about the rows of `plan`: their bag,
/// and where the plan orders them (a `Sort` at its root, under limits and
/// plain projections) their sequence — ties included, which is what a
/// `Limit` above cuts through.
fn same_rows(plan: &Plan, reference: &Relation, optimized: &Relation) -> bool {
    fn ordered(plan: &Plan) -> bool {
        match plan {
            Plan::Sort { .. } => true,
            Plan::Limit { input, .. }
            | Plan::Project {
                input,
                distinct: false,
                ..
            } => ordered(input),
            _ => false,
        }
    }
    if ordered(plan) {
        reference.tuples() == optimized.tuples()
    } else {
        reference.bag_eq(optimized)
    }
}

/// The seventh differential mode: the full random corpus with the
/// **algebraic optimizer** on versus the memo-only reference. Results must
/// agree — as bags, as sequences where the plan sorts — (or both modes must
/// fail), and the optimizer must never cost
/// operator evaluations beyond the decorrelation allowance — a
/// decorrelated plan may spend up to two extra operators (the join and the
/// fresh key projection) at trivial scale, and must *win* operators on a
/// healthy share of correlated plans, where one join replaces a
/// per-binding sublink re-execution.
#[test]
fn optimizer_on_agrees_with_reference_and_never_costs_operators() {
    let db = build_database(24, 18, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut decorrelated_plans = 0usize;
    let mut strict_wins = 0usize;
    for i in 0..PLANS {
        let plan = random_plan(&db, &mut rng);

        let ref_ex = Executor::new(&db);
        let reference = ref_ex.execute(&plan);

        let (optimized_plan, report) = perm_optimize::optimize(&plan);
        let opt_ex = Executor::new(&db);
        let optimized = opt_ex.execute(&optimized_plan);

        match (&reference, &optimized) {
            (Ok(a), Ok(b)) => {
                assert!(
                    same_rows(&plan, a, b),
                    "plan {i}: optimizer-on disagrees with memo-only reference\n{}",
                    perm_algebra::display::explain(&plan)
                );
                let slack = 2 * report.sublinks_decorrelated;
                let (ops_ref, ops_opt) =
                    (ref_ex.operators_evaluated(), opt_ex.operators_evaluated());
                assert!(
                    ops_opt <= ops_ref + slack,
                    "plan {i}: optimizer-on evaluated {ops_opt} operators vs {ops_ref} \
                     reference (allowance {slack}); report {report:?}\n{}",
                    perm_algebra::display::explain(&plan)
                );
                if report.sublinks_decorrelated > 0 {
                    decorrelated_plans += 1;
                    if ops_opt < ops_ref {
                        strict_wins += 1;
                    }
                }
            }
            (Err(_), Err(_)) => {}
            other => panic!(
                "plan {i}: optimizer changed the error outcome: reference={:?} optimized={:?}\n{}",
                other.0.as_ref().map(|_| "ok"),
                other.1.as_ref().map(|_| "ok"),
                perm_algebra::display::explain(&plan),
            ),
        }
    }
    // The corpus must actually exercise decorrelation, and decorrelation
    // must actually pay: most correlated points have more bindings than
    // the 2-operator allowance.
    assert!(
        decorrelated_plans >= PLANS / 10,
        "only {decorrelated_plans}/{PLANS} plans decorrelated a sublink"
    );
    assert!(
        strict_wins * 2 >= decorrelated_plans,
        "decorrelation won operators on only {strict_wins}/{decorrelated_plans} plans"
    );
}

/// Optimizer-on vs the reference interpreter on one (Gen-rewritten) plan:
/// identical witnesses ([`same_rows`]), or an error on both sides. Returns the
/// optimizer's report and both operator counts when both succeeded.
fn assert_optimizer_matches_reference(
    db: &Database,
    plan: &Plan,
    label: &str,
) -> Option<(perm_optimize::OptimizerReport, u64, u64)> {
    let ref_ex = Executor::new(db);
    let reference = ref_ex.execute_unoptimized(plan);
    let (optimized_plan, report) = perm_optimize::optimize(plan);
    let opt_ex = Executor::new(db);
    let optimized = opt_ex.execute(&optimized_plan);
    match (&reference, &optimized) {
        (Ok(a), Ok(b)) => {
            assert!(
                same_rows(plan, a, b),
                "{label}: optimizer-on witnesses differ from the reference\n{}",
                perm_algebra::display::explain(plan)
            );
            Some((
                report,
                ref_ex.operators_evaluated(),
                opt_ex.operators_evaluated(),
            ))
        }
        (Err(_), Err(_)) => None,
        other => panic!(
            "{label}: optimizer changed the error outcome: reference={:?} optimized={:?}\n{}",
            other.0.as_ref().map(|_| "ok"),
            other.1.as_ref().map(|_| "ok"),
            perm_algebra::display::explain(plan),
        ),
    }
}

/// The rewrite of `plan` under `strategy`, or `None` where the strategy
/// does not apply (sublinks in an outer join's condition; a correlated
/// sublink under anything but Gen).
fn rewrite_with(db: &Database, plan: &Plan, strategy: Strategy) -> Option<Plan> {
    perm_core::ProvenanceQuery::new(db, plan)
        .strategy(strategy)
        .rewrite()
        .ok()
        .map(|r| r.plan().clone())
}

/// The rules that make Gen join-shaped (conjunct implication, disjunction
/// split, hoisting through `Tsub⁺`, grouped aggregates, pushdown into and
/// semi joins through cross products) over the Gen rewrite of the random
/// corpus: every sublink kind, correlated or not, nested, under every
/// top-level shape. The plans the rules turn into joins entirely must also
/// evaluate fewer operators than the per-pair reference, nearly always.
#[test]
fn gen_rewritten_corpus_agrees_with_the_reference_under_the_optimizer() {
    let db = build_database(12, 9, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let (mut rewritten, mut join_shaped, mut wins) = (0usize, 0usize, 0usize);
    for i in 0..PLANS / 2 {
        let plan = random_plan(&db, &mut rng);
        let Some(gen) = rewrite_with(&db, &plan, Strategy::Gen) else {
            continue;
        };
        rewritten += 1;
        let label = format!("plan {i}");
        let Some((report, ops_ref, ops_opt)) =
            assert_optimizer_matches_reference(&db, &gen, &label)
        else {
            continue;
        };
        if report.sublinks_decorrelated > 0 && report.sublinks_remaining == 0 {
            join_shaped += 1;
            wins += usize::from(ops_opt < ops_ref);
        }
    }
    assert!(
        rewritten >= PLANS / 4,
        "Gen applied to only {rewritten} plans"
    );
    assert!(
        join_shaped >= rewritten / 8,
        "only {join_shaped}/{rewritten} Gen plans became join-shaped"
    );
    // A join-shaped plan costs its size in operators whatever the data; it
    // only loses where the reference never reaches a sublink (a leading
    // range conjunct that filters every row).
    assert!(
        wins * 10 >= join_shaped * 8,
        "join-shaped plans won operators on only {wins}/{join_shaped} plans"
    );
}

/// Tables built to break a decorrelation: NULLs in the correlation column
/// `g` on both sides, duplicate base rows, groups of `r1` without a partner
/// in `r2` (an empty sublink), and `b = 0` rows that make `1 / b` fail.
fn hostile_database(with_zero: bool) -> Database {
    let schema = |q: &str| {
        Schema::new(vec![
            Attribute::qualified(q, "a", DataType::Int),
            Attribute::qualified(q, "b", DataType::Int),
            Attribute::qualified(q, "g", DataType::Int),
        ])
    };
    let int = Value::Int;
    let zero = if with_zero { 0 } else { 9 };
    let mut db = Database::new();
    db.create_table(
        "r1",
        Relation::from_rows(
            schema("r1"),
            vec![
                vec![int(1), int(4), int(1)],
                vec![int(1), int(4), int(1)],
                vec![int(2), int(5), int(2)],
                vec![int(3), int(6), Value::Null],
                vec![int(4), int(zero), int(7)],
                vec![Value::Null, int(2), int(2)],
                vec![int(5), int(1), int(3)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "r2",
        Relation::from_rows(
            schema("r2"),
            vec![
                vec![int(1), int(3), int(1)],
                vec![int(1), int(3), int(1)],
                vec![int(2), int(5), int(1)],
                vec![int(3), Value::Null, int(2)],
                vec![int(4), int(6), Value::Null],
                vec![Value::Null, int(8), int(2)],
                vec![int(5), int(zero), int(3)],
            ],
        ),
    )
    .unwrap();
    db
}

/// Gen-rewritten correlated `EXISTS`, `NOT EXISTS`, `IN`, `<> ALL`, scalar
/// `avg` and the COUNT-bug query over the hostile tables, bare and with a
/// non-total conjunct (`1 / b > 0`) before or after the sublink — with and
/// without a `b = 0` row that makes it fail.
#[test]
fn gen_decorrelation_keeps_witness_bags_and_error_sets_on_hostile_tables() {
    let mut fully_decorrelated = 0usize;
    for with_zero in [false, true] {
        let db = hostile_database(with_zero);
        let corr = || {
            PlanBuilder::scan(&db, "r2")
                .unwrap()
                .select(eq(qcol("r2", "g"), qcol("r1", "g")))
        };
        let sublinks = [
            ("EXISTS", exists_sublink(corr().build())),
            ("NOT EXISTS", not(exists_sublink(corr().build()))),
            (
                "IN",
                any_sublink(
                    qcol("r1", "a"),
                    CompareOp::Eq,
                    corr().project_columns(&["a"]).build(),
                ),
            ),
            (
                "<> ALL",
                all_sublink(
                    qcol("r1", "a"),
                    CompareOp::Neq,
                    corr().project_columns(&["a"]).build(),
                ),
            ),
            (
                "scalar avg",
                cmp(
                    CompareOp::Lt,
                    qcol("r1", "b"),
                    scalar_sublink(
                        corr()
                            .aggregate(
                                vec![],
                                vec![perm_algebra::builder::avg(qcol("r2", "b"), "v")],
                            )
                            .build(),
                    ),
                ),
            ),
            (
                "count = 0",
                eq(
                    lit(0),
                    scalar_sublink(corr().aggregate(vec![], vec![count_star("n")]).build()),
                ),
            ),
        ];
        let non_total = || {
            cmp(
                CompareOp::Gt,
                perm_algebra::builder::binary(perm_algebra::BinaryOp::Div, lit(1), qcol("r1", "b")),
                lit(0),
            )
        };
        for (kind, sublink) in sublinks {
            let shapes = [
                ("bare", sublink.clone()),
                ("1/b before", and(non_total(), sublink.clone())),
                ("1/b after", and(sublink, non_total())),
            ];
            for (shape, predicate) in shapes {
                let plan = PlanBuilder::scan(&db, "r1")
                    .unwrap()
                    .select(predicate)
                    .build();
                let gen =
                    rewrite_with(&db, &plan, Strategy::Gen).expect("Gen applies to selections");
                let label = format!("{kind}, {shape}, zero row: {with_zero}");
                let outcome = assert_optimizer_matches_reference(&db, &gen, &label);
                // A leading `1 / b` meets the zero row whatever the
                // sublink says; behind the sublink it may be shielded.
                // Nothing else can fail.
                if shape == "1/b before" && with_zero {
                    assert!(outcome.is_none(), "{label}: `1 / 0` must fail");
                }
                if shape == "bare" || !with_zero {
                    assert!(outcome.is_some(), "{label}: nothing here can fail");
                }
                if let Some((report, ops_ref, ops_opt)) = outcome {
                    if shape == "bare" {
                        assert!(
                            report.sublinks_remaining <= 2 && ops_opt < ops_ref,
                            "{label}: {ops_opt} vs {ops_ref} operators; {}",
                            report.summary()
                        );
                        fully_decorrelated += usize::from(report.sublinks_remaining == 0);
                    }
                }
            }
        }
    }
    // EXISTS, NOT EXISTS and IN leave no sublink behind, on both tables.
    assert_eq!(fully_decorrelated, 6);
}

/// The conditions of the left outer joins of `plan`, in walk order.
fn left_outer_conditions(plan: &Plan) -> Vec<Expr> {
    let mut own = match plan {
        Plan::Join {
            kind: JoinKind::LeftOuter,
            condition,
            ..
        } => vec![condition.clone()],
        _ => Vec::new(),
    };
    for child in plan.children() {
        own.extend(left_outer_conditions(child));
    }
    own
}

/// The preserved-side pushdown (`σ_{c ∧ rest}(L ⟕_θ R)` →
/// `σ_rest(σ_c(L) ⟕_{θ[c := TRUE]} R)`) over the Left and Move rewrites of
/// the random corpus: every uncorrelated sublink kind, nested, under
/// disjunctions (which the rule must leave alone) and every top-level
/// shape.
#[test]
fn left_and_move_rewritten_corpus_agrees_with_the_reference_under_the_optimizer() {
    let db = build_database(12, 9, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let (mut checked, mut fired) = (0usize, 0usize);
    for i in 0..PLANS / 2 {
        let plan = random_plan(&db, &mut rng);
        for strategy in [Strategy::Left, Strategy::Move] {
            let Some(rewrite) = rewrite_with(&db, &plan, strategy) else {
                continue;
            };
            checked += 1;
            let label = format!("plan {i} under {strategy}");
            if let Some((report, _, _)) = assert_optimizer_matches_reference(&db, &rewrite, &label)
            {
                fired += usize::from(report.preserved_side_pushed > 0);
            }
        }
    }
    assert!(
        checked >= PLANS / 4,
        "Left/Move applied to only {checked} plans"
    );
    assert!(
        fired >= checked / 4,
        "the rule fired on only {fired}/{checked} plans"
    );
}

/// `x ⟨op⟩ ANY` / `x ⟨op⟩ ALL`, all six operators, under Left and Move
/// over the hostile tables: NULL test values, a sublink result with NULLs
/// and duplicates, one without NULLs, an empty one; bare, beside a second
/// total conjunct, and beside a non-total `1 / b` — which must keep the
/// rule out: the `⟕` keeps the condition the rewrite gave it.
#[test]
fn preserved_side_pushdown_keeps_witness_bags_and_error_sets_on_hostile_tables() {
    let ops = [
        CompareOp::Eq,
        CompareOp::Neq,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ];
    for with_zero in [false, true] {
        let db = hostile_database(with_zero);
        let r2 = || PlanBuilder::scan(&db, "r2").unwrap();
        let bodies = [
            ("NULLs and duplicates", r2().project_columns(&["a"]).build()),
            (
                "no NULLs",
                r2().select(cmp(CompareOp::Le, qcol("r2", "b"), lit(6)))
                    .project_columns(&["a"])
                    .build(),
            ),
            (
                "empty",
                r2().select(cmp(CompareOp::Gt, qcol("r2", "b"), lit(100)))
                    .project_columns(&["a"])
                    .build(),
            ),
        ];
        let total = || cmp(CompareOp::Ge, qcol("r1", "b"), lit(2));
        let non_total = || {
            cmp(
                CompareOp::Gt,
                perm_algebra::builder::binary(perm_algebra::BinaryOp::Div, lit(1), qcol("r1", "b")),
                lit(0),
            )
        };
        for (body_kind, body) in &bodies {
            for op in ops {
                for (quantifier, sublink) in [
                    ("ANY", any_sublink(qcol("r1", "a"), op, body.clone())),
                    ("ALL", all_sublink(qcol("r1", "a"), op, body.clone())),
                ] {
                    let shapes = [
                        ("bare", sublink.clone(), true),
                        ("total before", and(total(), sublink.clone()), true),
                        ("total after", and(sublink.clone(), total()), true),
                        ("1/b before", and(non_total(), sublink.clone()), false),
                        ("1/b after", and(sublink, non_total()), false),
                    ];
                    for (shape, predicate, fires) in shapes {
                        let plan = PlanBuilder::scan(&db, "r1")
                            .unwrap()
                            .select(predicate)
                            .build();
                        for strategy in [Strategy::Left, Strategy::Move] {
                            let rewrite = rewrite_with(&db, &plan, strategy)
                                .expect("Left and Move apply to uncorrelated sublinks");
                            let label = format!(
                                "a {op} {quantifier} ({body_kind}), {shape}, {strategy}, \
                                 zero row: {with_zero}"
                            );
                            let outcome = assert_optimizer_matches_reference(&db, &rewrite, &label);
                            // Every `r1` row survives the `⟕`, so a `1 / b`
                            // ahead of the sublink meets the zero row.
                            if shape == "1/b before" && with_zero {
                                assert!(outcome.is_none(), "{label}: `1 / 0` must fail");
                            }
                            if fires || !with_zero {
                                assert!(outcome.is_some(), "{label}: nothing here can fail");
                            }
                            let (optimized, report) = perm_optimize::optimize(&rewrite);
                            let conditions = left_outer_conditions(&optimized);
                            if fires {
                                assert!(report.preserved_side_pushed >= 1, "{label}");
                                assert!(
                                    conditions.iter().all(|c| !c.has_sublink()
                                        && c.column_refs()
                                            .iter()
                                            .all(|(_, n)| !n.starts_with("sublink_val"))),
                                    "{label}: {conditions:?}"
                                );
                            } else {
                                assert_eq!(
                                    (report.preserved_side_pushed, report.sublinks_implied),
                                    (0, 0),
                                    "{label}"
                                );
                                assert_eq!(conditions, left_outer_conditions(&rewrite), "{label}");
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch-seam differential cases: table sizes straddling the batch size
// (0, 1, BATCH−1, BATCH, BATCH+1 rows) with NaN keys and >2⁵³ integer keys
// placed so they cross the first batch boundary. Five execution modes
// (columnar, `Values`-lane vectorized, per-tuple compiled, interpreted,
// memo-off) must agree bag-for-bag on every plan shape that exercises a
// batched seam
// (vectorized logic/CASE/function evaluation, hashed and batched join
// probes, grouping, sort+limit tie order, sublink fallback), and the
// vectorized and per-tuple compiled modes must report identical
// `operators_evaluated` (the counter is per logical operator invocation,
// not per batch).
// ---------------------------------------------------------------------------

const TWO_53: i64 = 1 << 53;

/// t(a, k, g) with `rows` rows: `a` is the row number, `k` mixes small
/// integers, NaN floats (every 97th row) and a run of 2⁵³-family integers
/// straddling the first batch boundary, `g` is a 7-group correlation
/// attribute. u(c, g) is a small lookup relation to correlate against.
fn seam_database(rows: usize) -> Database {
    let mut db = Database::new();
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let k = if i + 4 >= BATCH_ROWS && i <= BATCH_ROWS + 1 {
                // 2⁵³−4 … 2⁵³+1: exact-integer keys whose f64 views collide
                // at the top, crossing the first batch boundary.
                Value::Int(TWO_53 + (i as i64 - BATCH_ROWS as i64))
            } else if i % 97 == 0 {
                Value::Float(f64::NAN)
            } else {
                Value::Int((i % 5) as i64)
            };
            // 2⁵³−1024 …: an all-Int column, so a stored lane, that
            // crosses 2⁵³ at the first batch boundary.
            let big = Value::Int(TWO_53 + (i as i64 - BATCH_ROWS as i64));
            vec![Value::Int(i as i64), k, Value::Int((i % 7) as i64), big]
        })
        .collect();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("t", "a", DataType::Int),
                Attribute::qualified("t", "k", DataType::Any),
                Attribute::qualified("t", "g", DataType::Int),
                Attribute::qualified("t", "big", DataType::Int),
            ]),
            data,
        ),
    )
    .unwrap();
    db.create_table(
        "u",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("u", "c", DataType::Int),
                Attribute::qualified("u", "g", DataType::Int),
            ]),
            (0..21)
                .map(|i| vec![Value::Int(i), Value::Int(i % 7)])
                .collect(),
        ),
    )
    .unwrap();
    db
}

/// The five execution modes of the seam tests, each an executor over `db`
/// with `params` bound: columnar-compiled (the default), `Values`-lane
/// vectorized (columnar off), per-tuple-compiled (batching off: every row a
/// batch of one), interpreted and memo-off.
fn seam_modes<'a>(db: &'a Database, params: &[Value]) -> [(&'static str, Executor<'a>); 5] {
    let modes = [
        ("columnar", Executor::new(db)),
        ("Values lanes", Executor::new(db).with_columnar(false)),
        ("per-tuple", Executor::new(db).with_batching(false)),
        ("interpreter", Executor::new(db)),
        ("memo off", Executor::new(db).with_sublink_memo(false)),
    ];
    for (_, ex) in &modes {
        ex.bind_params(params.to_vec());
    }
    modes
}

/// Runs `plan` with `params` bound in every one of the [`seam_modes`] and
/// asserts that each fails with `expected`.
fn assert_seam_modes_fail(
    db: &Database,
    plan: &Plan,
    params: &[Value],
    expected: &ExecError,
    label: &str,
) {
    for (mode, ex) in seam_modes(db, params) {
        let result = match mode {
            "interpreter" => ex.execute_unoptimized(plan),
            _ => ex.execute(plan),
        };
        assert_eq!(result.err().as_ref(), Some(expected), "{label}: {mode}");
    }
}

/// Runs one plan through every [`seam_modes`] and asserts bag equality plus
/// parity of the work counters — operators, memo hits and misses, probe
/// rows — among the three compiled modes, none of which the per-tuple mode
/// counts as a vectorized batch.
fn assert_seam_modes_agree(db: &Database, plan: &Plan, label: &str) {
    assert_seam_modes_agree_with(db, plan, &[], label);
}

/// [`assert_seam_modes_agree`] with `params` bound in every mode.
fn assert_seam_modes_agree_with(db: &Database, plan: &Plan, params: &[Value], label: &str) {
    let [(_, batched_ex), (_, values_ex), (_, per_tuple_ex), (_, interpreter_ex), (_, memo_off_ex)] =
        seam_modes(db, params);
    let batched = batched_ex.execute(plan).unwrap();
    let values_lane = values_ex.execute(plan).unwrap();
    let per_tuple = per_tuple_ex.execute(plan).unwrap();
    let interpreted = interpreter_ex.execute_unoptimized(plan).unwrap();
    let memo_off = memo_off_ex.execute(plan).unwrap();
    assert!(
        batched.bag_eq(&values_lane),
        "{label}: columnar vs Values lanes"
    );
    assert!(batched.bag_eq(&per_tuple), "{label}: batched vs per-tuple");
    assert!(
        batched.bag_eq(&interpreted),
        "{label}: batched vs interpreter"
    );
    assert!(batched.bag_eq(&memo_off), "{label}: batched vs memo-off");
    assert_eq!(
        batched_ex.operators_evaluated(),
        per_tuple_ex.operators_evaluated(),
        "{label}: operators_evaluated must not depend on batching"
    );
    assert_eq!(
        batched_ex.operators_evaluated(),
        values_ex.operators_evaluated(),
        "{label}: operators_evaluated must not depend on the column layout"
    );
    let work = |ex: &Executor<'_>| {
        [
            ex.stats().memo_hits,
            ex.stats().memo_misses,
            ex.stats().quantifier_comparisons,
        ]
    };
    assert_eq!(work(&batched_ex), work(&per_tuple_ex), "{label}: batching");
    assert_eq!(
        work(&batched_ex),
        work(&values_ex),
        "{label}: column layout"
    );
    assert_eq!(per_tuple_ex.batches_vectorized(), 0, "{label}");
}

#[test]
fn batch_boundary_seams_agree_across_all_modes() {
    for rows in [0, 1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
        let db = seam_database(rows);
        let label = |shape: &str| format!("{shape} at {rows} rows");

        // Vectorized AND/OR short-circuiting plus arithmetic over batches.
        let select = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(or(
                and(
                    cmp(CompareOp::Ge, qcol("t", "k"), lit(3)),
                    cmp(CompareOp::Lt, qcol("t", "g"), lit(5)),
                ),
                cmp(
                    CompareOp::Gt,
                    perm_algebra::builder::binary(
                        perm_algebra::BinaryOp::Mul,
                        qcol("t", "a"),
                        lit(2),
                    ),
                    lit(rows as i64),
                ),
            ))
            .build();
        assert_seam_modes_agree(&db, &select, &label("select"));

        // Conjunct chains over the stored lanes, each conjunct narrowing the
        // rows the earlier ones left: constants on either side, a `$1`,
        // exact Int-vs-Float order at 2⁵³ ± 1, NaN in the mixed `k` column,
        // and `Str` vs `Int`, which has no typed kernel.
        let t = |column: &str| qcol("t", column);
        let two_53 = || lit(Value::Float(TWO_53 as f64));
        let ten_over = |column: &str| {
            perm_algebra::builder::binary(perm_algebra::BinaryOp::Div, lit(10), t(column))
        };
        let chains: [(&str, Expr, Vec<Value>); 8] = [
            (
                "three conjuncts, left-deep",
                and(
                    and(
                        cmp(CompareOp::Ge, t("a"), lit(3)),
                        cmp(CompareOp::Gt, lit(5), t("g")),
                    ),
                    cmp(CompareOp::Neq, t("k"), lit(2)),
                ),
                vec![],
            ),
            (
                "three conjuncts, right-deep",
                and(
                    cmp(CompareOp::Le, lit(1), t("a")),
                    and(
                        cmp(CompareOp::Lt, t("g"), lit(6)),
                        cmp(CompareOp::Ge, lit(BATCH_ROWS as i64), t("a")),
                    ),
                ),
                vec![],
            ),
            (
                "$1 on either side",
                and(
                    cmp(CompareOp::Lt, t("a"), Expr::Param(0)),
                    cmp(CompareOp::Ge, Expr::Param(0), t("g")),
                ),
                vec![Value::Int(BATCH_ROWS as i64 - 2)],
            ),
            (
                "$1 bound to NULL",
                and(
                    cmp(CompareOp::Lt, t("a"), Expr::Param(0)),
                    cmp(CompareOp::Ge, t("g"), lit(1)),
                ),
                vec![Value::Null],
            ),
            (
                "Int lane vs Float at 2^53 +- 1",
                and(
                    and(
                        cmp(
                            CompareOp::Ge,
                            t("big"),
                            lit(Value::Float(TWO_53 as f64 - 2.0)),
                        ),
                        cmp(CompareOp::Le, two_53(), t("big")),
                    ),
                    cmp(CompareOp::Neq, t("big"), two_53()),
                ),
                vec![],
            ),
            (
                "NaN in the mixed column",
                and(
                    cmp(CompareOp::Lt, t("k"), lit(Value::Float(f64::NAN))),
                    cmp(CompareOp::Ge, lit(Value::Float(f64::NAN)), t("k")),
                ),
                vec![],
            ),
            (
                "Str vs Int",
                and(
                    cmp(CompareOp::Neq, t("g"), lit("3")),
                    and(
                        cmp(CompareOp::Lt, lit("x"), t("a")),
                        cmp(CompareOp::Ge, t("a"), lit(0)),
                    ),
                ),
                vec![],
            ),
            (
                "a FALSE conjunct shields the division",
                and(
                    cmp(CompareOp::Gt, t("g"), lit(0)),
                    cmp(CompareOp::Gt, ten_over("g"), lit(1)),
                ),
                vec![],
            ),
        ];
        for (shape, predicate, params) in chains {
            let plan = PlanBuilder::scan(&db, "t")
                .unwrap()
                .select(predicate)
                .build();
            assert_seam_modes_agree_with(&db, &plan, &params, &label(shape));
        }

        // A row an earlier conjunct finds UNKNOWN evaluates the later ones,
        // so the division by the row with `g = 0` raises in every mode —
        // whether the first conjunct or a later one finds it UNKNOWN.
        let unknown = || cmp(CompareOp::Lt, t("g"), Expr::Param(0));
        let failing = || cmp(CompareOp::Gt, ten_over("g"), lit(1));
        for (shape, predicate) in [
            (
                "UNKNOWN before a failing conjunct",
                and(unknown(), failing()),
            ),
            (
                "UNKNOWN in the middle of a chain",
                and(
                    and(cmp(CompareOp::Neq, t("a"), lit(3)), unknown()),
                    failing(),
                ),
            ),
        ] {
            let plan = PlanBuilder::scan(&db, "t")
                .unwrap()
                .select(predicate)
                .build();
            match rows {
                0 => assert_seam_modes_agree_with(&db, &plan, &[Value::Null], &label(shape)),
                _ => assert_seam_modes_fail(
                    &db,
                    &plan,
                    &[Value::Null],
                    &ExecError::DivisionByZero,
                    &label(shape),
                ),
            }
        }

        // Vectorized CASE branch narrowing and function evaluation.
        let project = PlanBuilder::scan(&db, "t")
            .unwrap()
            .project(vec![
                ProjectItem::new(
                    perm_algebra::builder::binary(
                        perm_algebra::BinaryOp::Add,
                        qcol("t", "a"),
                        lit(1),
                    ),
                    "a1",
                ),
                ProjectItem::new(
                    perm_algebra::Expr::Case {
                        branches: vec![
                            (cmp(CompareOp::Gt, qcol("t", "k"), lit(2)), lit("hi")),
                            (cmp(CompareOp::Le, qcol("t", "k"), lit(0)), lit("lo")),
                        ],
                        else_expr: Some(Box::new(lit("mid"))),
                    },
                    "bucket",
                ),
                ProjectItem::new(
                    perm_algebra::Expr::Func {
                        name: perm_algebra::FuncName::Abs,
                        args: vec![perm_algebra::builder::binary(
                            perm_algebra::BinaryOp::Sub,
                            qcol("t", "g"),
                            lit(3),
                        )],
                    },
                    "dist",
                ),
            ])
            .build();
        assert_seam_modes_agree(&db, &project, &label("project"));

        // Grouping on the mixed key column: NaN forms one group, the
        // 2⁵³-family integers stay distinct groups across the boundary.
        let aggregate = PlanBuilder::scan(&db, "t")
            .unwrap()
            .aggregate(
                vec![ProjectItem::column("k")],
                vec![count_star("n"), sum(qcol("t", "a"), "total")],
            )
            .build();
        assert_seam_modes_agree(&db, &aggregate, &label("aggregate"));

        // Stable sort with heavy ties + limit at the batch boundary: tie
        // order (input order) must survive batching identically.
        let sort_limit = PlanBuilder::scan(&db, "t")
            .unwrap()
            .sort(vec![
                SortKey::desc(qcol("t", "g")),
                SortKey::asc(qcol("t", "k")),
            ])
            .limit(BATCH_ROWS)
            .build();
        assert_seam_modes_agree(&db, &sort_limit, &label("sort+limit"));

        // Hash join whose probe side crosses the batch boundary and whose
        // build side carries the NaN and >2⁵³ keys.
        let boundary_rows = PlanBuilder::scan_as(&db, "t", Some("o"))
            .unwrap()
            .select(cmp(
                CompareOp::Ge,
                qcol("o", "a"),
                lit(BATCH_ROWS as i64 - 4),
            ))
            .build();
        let join = PlanBuilder::scan(&db, "t")
            .unwrap()
            .join(boundary_rows.clone(), eq(qcol("t", "k"), qcol("o", "k")))
            .build();
        assert_seam_modes_agree(&db, &join, &label("hash join"));

        // Left-outer nested-loop join (no extractable equi-key): batched
        // candidate filtering with per-left-row padding order.
        let outer_join = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(CompareOp::Lt, qcol("t", "a"), lit(40)))
            .left_join(
                boundary_rows,
                or(
                    eq(qcol("t", "k"), qcol("o", "k")),
                    cmp(CompareOp::Gt, qcol("t", "g"), qcol("o", "g")),
                ),
            )
            .build();
        assert_seam_modes_agree(&db, &outer_join, &label("left-outer nested-loop join"));

        // Correlated EXISTS: the sublink is looked up once per row and
        // must keep driving the parameterized memo (7 distinct bindings).
        let correlated = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(and(
                exists_sublink(
                    PlanBuilder::scan(&db, "u")
                        .unwrap()
                        .select(and(
                            eq(qcol("u", "g"), qcol("t", "g")),
                            cmp(CompareOp::Gt, qcol("u", "c"), lit(10)),
                        ))
                        .build(),
                ),
                cmp(CompareOp::Ge, qcol("t", "a"), lit(0)),
            ))
            .build();
        assert_seam_modes_agree(&db, &correlated, &label("correlated exists"));

        // Correlated ALL with a computed test: the test column is evaluated
        // over the batch, the sublink looked up per row under its `g`.
        let quantified = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(all_sublink(
                perm_algebra::builder::binary(perm_algebra::BinaryOp::Add, qcol("t", "a"), lit(1)),
                CompareOp::Lt,
                PlanBuilder::scan(&db, "u")
                    .unwrap()
                    .select(eq(qcol("u", "g"), qcol("t", "g")))
                    .project_columns(&["c"])
                    .build(),
            ))
            .build();
        assert_seam_modes_agree(&db, &quantified, &label("correlated computed all"));
    }
}

/// v(x, y) with `rows` rows where `x` is NULL on two runs that straddle the
/// first and second batch boundaries (and `y` interleaves shorter NULL
/// runs): the validity bitmap of a typed Int lane must carry whole-word
/// NULL runs across the 1024-row seam identically to row-major `Value`s.
fn null_run_database(rows: usize) -> Database {
    let in_null_run = |i: usize| {
        (i + 37 >= BATCH_ROWS && i <= BATCH_ROWS + 41)
            || (i + 3 >= 2 * BATCH_ROWS && i <= 2 * BATCH_ROWS + 66)
    };
    let data: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            let x = if in_null_run(i) {
                Value::Null
            } else {
                Value::Int((i % 11) as i64)
            };
            let y = if i % 128 < 5 {
                Value::Null
            } else {
                Value::Int((i % 7) as i64)
            };
            vec![x, y]
        })
        .collect();
    let mut db = Database::new();
    db.create_table(
        "v",
        Relation::from_rows(
            Schema::new(vec![
                Attribute::qualified("v", "x", DataType::Int),
                Attribute::qualified("v", "y", DataType::Int),
            ]),
            data,
        ),
    )
    .unwrap();
    db
}

#[test]
fn null_runs_crossing_the_batch_seam_agree_across_modes() {
    let db = null_run_database(2 * BATCH_ROWS + 70);

    // Typed comparison and arithmetic over the NULL runs: UNKNOWN rows are
    // dropped by the selection in every mode.
    let select = PlanBuilder::scan(&db, "v")
        .unwrap()
        .select(or(
            cmp(
                CompareOp::Lt,
                perm_algebra::builder::binary(perm_algebra::BinaryOp::Add, qcol("v", "x"), lit(2)),
                lit(6),
            ),
            cmp(CompareOp::Ge, qcol("v", "y"), lit(5)),
        ))
        .build();
    assert_seam_modes_agree(&db, &select, "select over NULL runs");

    // NULL-safe grouping: the NULL runs form one group whose key encoding
    // must agree between the column-wise and row-major encoders.
    let aggregate = PlanBuilder::scan(&db, "v")
        .unwrap()
        .aggregate(
            vec![ProjectItem::column("x")],
            vec![count_star("n"), sum(qcol("v", "y"), "total")],
        )
        .build();
    assert_seam_modes_agree(&db, &aggregate, "aggregate over NULL runs");

    // Hash join keyed on the NULL-run column: NULL keys never match under
    // plain equality, so both runs drop out of build and probe.
    let small = PlanBuilder::scan_as(&db, "v", Some("w"))
        .unwrap()
        .select(cmp(CompareOp::Ge, qcol("w", "y"), lit(4)))
        .build();
    let join = PlanBuilder::scan(&db, "v")
        .unwrap()
        .join(small, eq(qcol("v", "x"), qcol("w", "x")))
        .build();
    assert_seam_modes_agree(&db, &join, "hash join over NULL-run keys");

    // IS NULL / IS NOT NULL straight off the validity bitmap.
    let is_null = PlanBuilder::scan(&db, "v")
        .unwrap()
        .select(and(
            perm_algebra::builder::is_null(qcol("v", "x")),
            not(perm_algebra::builder::is_null(qcol("v", "y"))),
        ))
        .build();
    assert_seam_modes_agree(&db, &is_null, "IS NULL over the validity bitmap");

    // Conjunct chains over the stored lanes' validity: a NULL makes a
    // conjunct UNKNOWN, which drops the row from the result but not from
    // the later conjuncts.
    let v = |column: &str| qcol("v", column);
    let ten_over = |column: &str| {
        perm_algebra::builder::binary(perm_algebra::BinaryOp::Div, lit(10), v(column))
    };
    let chains: [(&str, Expr, Vec<Value>); 4] = [
        (
            "three conjuncts over NULL runs",
            and(
                and(
                    cmp(CompareOp::Ge, v("x"), lit(1)),
                    cmp(CompareOp::Gt, lit(6), v("y")),
                ),
                cmp(CompareOp::Neq, v("x"), lit(4)),
            ),
            vec![],
        ),
        (
            "$1 on either side over NULL runs",
            and(
                cmp(CompareOp::Lt, v("x"), Expr::Param(0)),
                cmp(CompareOp::Ge, Expr::Param(0), v("y")),
            ),
            vec![Value::Int(5)],
        ),
        (
            "$1 bound to NULL over NULL runs",
            and(
                cmp(CompareOp::Ge, v("y"), lit(2)),
                cmp(CompareOp::Lt, Expr::Param(0), v("x")),
            ),
            vec![Value::Null],
        ),
        (
            "a FALSE conjunct shields the division over NULL runs",
            and(
                cmp(CompareOp::Gt, v("x"), lit(0)),
                cmp(CompareOp::Gt, ten_over("x"), lit(1)),
            ),
            vec![],
        ),
    ];
    for (shape, predicate, params) in chains {
        let plan = PlanBuilder::scan(&db, "v")
            .unwrap()
            .select(predicate)
            .build();
        assert_seam_modes_agree_with(&db, &plan, &params, shape);
    }

    // `x > 100` is FALSE on every row but those of the NULL runs, where it
    // is UNKNOWN: they go on to the division, and one of them has `y = 0` —
    // whether `x > 100` comes first or after a conjunct that leaves them.
    let unknown = || cmp(CompareOp::Gt, v("x"), lit(100));
    let failing = || cmp(CompareOp::Gt, ten_over("y"), lit(1));
    for (shape, predicate) in [
        (
            "UNKNOWN over a NULL run before a failing conjunct",
            and(unknown(), failing()),
        ),
        (
            "UNKNOWN over a NULL run in the middle of a chain",
            and(
                and(cmp(CompareOp::Neq, v("y"), lit(1)), unknown()),
                failing(),
            ),
        ),
    ] {
        let plan = PlanBuilder::scan(&db, "v")
            .unwrap()
            .select(predicate)
            .build();
        assert_seam_modes_fail(&db, &plan, &[], &ExecError::DivisionByZero, shape);
    }
}

// ---------------------------------------------------------------------------
// Crash-consistency sweeps: the same seeded plan corpus, re-executed under
// injected faults. The contract is binary — every faulted execution returns
// either the exact reference bag (the fault landed after the work, or the
// governor degraded gracefully) or one clean typed error; never a partial
// bag, a hang, or a panic.
// ---------------------------------------------------------------------------

/// The plans of the seeded corpus, sampled every 11th (20 of 220) to keep
/// the sweep a few seconds while still covering every top-level shape.
fn sampled_corpus(db: &Database) -> Vec<(usize, Plan)> {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    (0..PLANS)
        .map(|i| (i, random_plan(db, &mut rng)))
        .step_by(11)
        .collect()
}

#[test]
fn cancellation_sweep_yields_exact_bags_or_a_clean_cancelled_error() {
    let db = build_database(24, 18, 0xD1FF);
    let mut cancelled = 0usize;
    for (i, plan) in sampled_corpus(&db) {
        let reference = Executor::new(&db).execute(&plan);
        // Cancel at the k-th checkpoint, k swept geometrically until it
        // lies beyond the plan's last checkpoint (the fault no longer
        // fires and the run must reproduce the reference exactly).
        let mut k = 1u64;
        loop {
            let fault = FaultPlan::new(FaultKind::Cancel, FaultSite::Checkpoint, k);
            let ex = Executor::new(&db).with_fault_plan(fault.clone());
            let result = ex.execute(&plan);
            match (&reference, &result) {
                (_, Err(ExecError::Cancelled { reason })) => {
                    assert!(
                        reason.contains("injected"),
                        "plan {i} k={k}: cancellation must carry its reason, got {reason:?}"
                    );
                    cancelled += 1;
                }
                (Ok(want), Ok(got)) => assert!(
                    want.bag_eq(got),
                    "plan {i} k={k}: a survived cancellation point changed the bag"
                ),
                (Err(want), Err(got)) => assert_eq!(
                    want, got,
                    "plan {i} k={k}: the plan's own error must survive unchanged"
                ),
                _ => panic!(
                    "plan {i} k={k}: fault flipped success/failure: reference \
                     {reference:?} vs faulted {result:?}"
                ),
            }
            if !fault.fired() {
                break;
            }
            k *= 2;
        }
    }
    assert!(
        cancelled >= 20,
        "the sweep must actually hit live checkpoints, got {cancelled} cancellations"
    );
}

/// The cancellation and idle-governor contracts on the paper's own plans:
/// the Gen rewrites of the Fig. 7 queries q1 / q2 / q3 (300 × 60 rows), run
/// exactly as rewritten. A cancellation injected at the middle checkpoint
/// must unwind without reaching another one — "returns within one batch" as
/// a count, no clock involved — and a governor that is armed but never
/// binds (far deadline, 1 TiB budget) must change nothing but its counters.
#[test]
fn gen_rewritten_fig7_plans_cancel_within_one_batch_and_ignore_an_idle_governor() {
    let (r1_rows, r2_rows, seed) = (300, 60, 7);
    let db = build_database(r1_rows, r2_rows, seed);
    let params = random_range(r1_rows, r2_rows, seed);
    let mut accounted_bytes = false;
    for kind in [
        QueryKind::Q1EqualityAny,
        QueryKind::Q2InequalityAll,
        QueryKind::Q3CorrelatedExists,
    ] {
        let plan = rewrite_with(&db, &build_query(&db, params, kind), Strategy::Gen)
            .expect("Gen applies to every sublink");
        let plain_ex = Executor::new(&db);
        let plain = plain_ex.execute(&plan).unwrap();
        let checks = plain_ex.stats().cancel_checks;
        assert!(checks > 0, "{kind:?}: the run passed no checkpoint");

        // The fault keeps counting checkpoints after it fired, so
        // `events_seen == cancel_at` says the query started no further batch.
        let cancel_at = (checks / 2).max(1);
        let fault = FaultPlan::new(FaultKind::Cancel, FaultSite::Checkpoint, cancel_at);
        let cancelled = Executor::new(&db)
            .with_fault_plan(fault.clone())
            .execute(&plan);
        assert!(
            matches!(cancelled, Err(ExecError::Cancelled { .. })),
            "{kind:?}: cancelling at checkpoint {cancel_at} of {checks} gave {cancelled:?}"
        );
        assert!(
            fault.fired(),
            "{kind:?}: the injected cancellation must fire"
        );
        assert_eq!(
            fault.events_seen(),
            cancel_at,
            "{kind:?}: the query kept running past the injected cancellation"
        );

        let armed_ex = Executor::new(&db)
            .with_deadline(Duration::from_secs(3600))
            .with_memory_budget(Some(1 << 40));
        let armed = armed_ex.execute(&plan).unwrap();
        assert!(
            armed.bag_eq(&plain),
            "{kind:?}: an idle cancel token and budget changed the bag"
        );
        accounted_bytes |= armed_ex.stats().peak_bytes > 0;
    }
    assert!(
        accounted_bytes,
        "the armed accountant must observe bytes on at least one plan"
    );
}

#[test]
fn memory_budget_sweep_degrades_gracefully_or_fails_with_a_named_operator() {
    let db = build_database(24, 18, 0xD1FF);
    let mut exhausted = 0usize;
    for (i, plan) in sampled_corpus(&db) {
        let reference = Executor::new(&db).execute(&plan);
        // Budgets from starvation to ample: small ones force memo skips and
        // operator failures, large ones must change nothing.
        for budget in [256u64, 4 << 10, 64 << 10, 4 << 20] {
            let ex = Executor::new(&db).with_memory_budget(Some(budget));
            let result = ex.execute(&plan);
            match (&reference, &result) {
                (_, Err(ExecError::ResourceExhausted { operator })) => {
                    assert!(
                        !operator.is_empty(),
                        "plan {i} budget={budget}: exhaustion must name its operator"
                    );
                    exhausted += 1;
                }
                (Ok(want), Ok(got)) => assert!(
                    want.bag_eq(got),
                    "plan {i} budget={budget}: degraded memoization changed the bag"
                ),
                (Err(want), Err(got)) => assert_eq!(want, got, "plan {i} budget={budget}"),
                _ => panic!(
                    "plan {i} budget={budget}: budget flipped success/failure: \
                     {reference:?} vs {result:?}"
                ),
            }
        }
    }
    assert!(
        exhausted > 0,
        "the starvation budgets must exhaust at least one operator"
    );
}

// ---------------------------------------------------------------------------
// Spill-forced sixth mode: the full 220-plan corpus under a starvation
// budget *with spilling enabled*. Queries must produce exactly the
// unbudgeted reference bag — the out-of-core operators (grace hash join,
// external merge sort, partitioned aggregation) are bag- and
// order-transparent. Under pressure the governor drops memo entries before
// it spills, and a dropped entry is recomputed on its next miss: a plan
// that never reached `ReclaimedMemos` evaluates exactly the reference's
// operators, and one that did evaluates at least as many.
// ---------------------------------------------------------------------------

/// Drives each out-of-core operator path deterministically — grace inner
/// join, grace left-outer join (NULL padding through the ordinal walk),
/// external merge sort over a multi-batch input, and partitioned
/// aggregation — and demands **row-for-row identical** output, not just
/// bag equality: out-of-core execution must be order-transparent. Each plan
/// first exhausts the same budget with spilling off, so what completes here
/// is exactly what the spill paths rescue.
#[test]
fn out_of_core_operators_reproduce_exact_row_order() {
    let narrow = build_database(600, 400, 0xACE5);
    out_of_core_reproduces_exact_row_order("", &narrow, 4 << 10, ("g", "b"));
    // The join and sort keys `a` and `b` as strings wider than a page: every
    // build and sort-run record, and every spilled group (grouped by `b`,
    // since the sum needs the one numeric column left), crosses page
    // boundaries. A budget of a few such rows keeps each grace partition's
    // rebuild within it.
    let wide = with_wide_columns(build_database(200, 150, 0xACE5), &["a", "b"], 12 << 10);
    out_of_core_reproduces_exact_row_order(" over 12 KiB strings", &wide, 1 << 20, ("b", "g"));
    mixed_type_sorts_match_a_stable_sort_on_sort_key();
}

/// A table `m(id, k, j, f)` of 3 000 rows: `id` numbers the rows, `k` and
/// `j` mix every value variant — integers and floats at 2⁵³ ± 1 and the
/// `i64` extremes, fractions on both sides of zero, ±0.0, ±∞, NaN with
/// several payloads, dates equal to integers, booleans, strings with shared
/// prefixes, embedded `\0` and non-ASCII bytes, NULL — with many ties, and
/// `f` is a float column with NULLs and NaNs.
fn mixed_type_database() -> Database {
    const TWO_53: i64 = 1 << 53;
    let pool = [
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Int(3),
        Value::Int(TWO_53 - 1),
        Value::Int(TWO_53),
        Value::Int(TWO_53 + 1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(3.0),
        Value::Float(3.5),
        Value::Float(-0.5),
        Value::Float(-1e-300),
        Value::Float(TWO_53 as f64),
        Value::Float((TWO_53 + 2) as f64),
        Value::Float(9.3e18),
        Value::Float(-9.3e18),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)),
        Value::Date(3),
        Value::Date(-1),
        Value::str(""),
        Value::str("a"),
        Value::str("ab"),
        Value::str("ab\0"),
        Value::str("ab\0c"),
        Value::str("é"),
        Value::str("日本"),
    ];
    let mut rng = StdRng::seed_from_u64(0x50B7);
    let rows = (0..3_000i64)
        .map(|id| {
            let f = match rng.gen_range(0..8u32) {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                _ => Value::Float(rng.gen_range(-40..40i64) as f64 / 4.0),
            };
            vec![
                Value::Int(id),
                pool[rng.gen_range(0..pool.len())].clone(),
                pool[rng.gen_range(0..pool.len())].clone(),
                f,
            ]
        })
        .collect();
    let schema = Schema::new(vec![
        Attribute::qualified("m", "id", DataType::Int),
        Attribute::qualified("m", "k", DataType::Any),
        Attribute::qualified("m", "j", DataType::Any),
        Attribute::qualified("m", "f", DataType::Float),
    ]);
    let mut db = Database::new();
    db.create_or_replace_table("m", Relation::from_rows(schema, rows));
    db
}

/// The sort checked against an oracle computed here, not by the engine: a
/// stable `Vec::sort_by` on `Value::sort_key` per key with its direction.
/// The interpreter calls the same physical sort as the compiled path, so
/// only an oracle of its own can see a sort-key encoding bug. Each key list
/// runs resident, under a budget that spills sorted runs, and through the
/// interpreter; the output must be the oracle's row sequence (by `id`, so
/// `Int(3)` and `Float(3.0)` cannot stand in for each other).
fn mixed_type_sorts_match_a_stable_sort_on_sort_key() {
    let db = mixed_type_database();
    let rows = db.table("m").unwrap().tuples().to_vec();
    // `f * 1.0` is evaluated into a typed `Float` lane; bare columns reach
    // the sort as the values they are.
    let f_times_one = || binary(BinaryOp::Mul, qcol("m", "f"), lit(1.0));
    let key_lists = [
        (
            vec![SortKey::asc(qcol("m", "k")), SortKey::desc(qcol("m", "j"))],
            vec![(1, true), (2, false)],
        ),
        (
            vec![SortKey::desc(qcol("m", "k")), SortKey::asc(f_times_one())],
            vec![(1, false), (3, true)],
        ),
        (
            vec![
                SortKey::desc(f_times_one()),
                SortKey::asc(qcol("m", "j")),
                SortKey::desc(qcol("m", "k")),
            ],
            vec![(3, false), (2, true), (1, false)],
        ),
    ];
    for (keys, oracle_keys) in key_lists {
        let mut want = rows.clone();
        want.sort_by(|a, b| {
            oracle_keys
                .iter()
                .map(|&(column, ascending)| {
                    let ord = a.get(column).sort_key(b.get(column));
                    if ascending {
                        ord
                    } else {
                        ord.reverse()
                    }
                })
                .find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let want: Vec<&Value> = want.iter().map(|t| t.get(0)).collect();
        let plan = PlanBuilder::scan(&db, "m").unwrap().sort(keys).build();
        let spilling = Executor::new(&db)
            .with_memory_budget(Some(64 << 10))
            .with_spill(true);
        let runs = [
            ("resident", Executor::new(&db).execute(&plan).unwrap()),
            ("spilled", spilling.execute(&plan).unwrap()),
            (
                "interpreted",
                Executor::new(&db).execute_unoptimized(&plan).unwrap(),
            ),
        ];
        assert!(
            spilling.spill_partitions() > 1,
            "{oracle_keys:?}: must spill runs"
        );
        for (mode, got) in runs {
            let got: Vec<&Value> = got.tuples().iter().map(|t| t.get(0)).collect();
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(g, w)| format!("{g:?}") == format!("{w:?}"))
                    && got.len() == want.len(),
                "{mode} sort by {oracle_keys:?} differs from the stable sort on Value::sort_key"
            );
        }
    }
}

/// `db` with the integer `columns` rewritten as zero-padded strings of
/// `width` bytes, which keep their equalities.
fn with_wide_columns(mut db: Database, columns: &[&str], width: usize) -> Database {
    assert!(width > perm_storage::PAGE_SIZE);
    for table in ["r1", "r2"] {
        let rel = db.table(table).unwrap();
        let wide: Vec<bool> = rel
            .schema()
            .attributes()
            .iter()
            .map(|a| columns.contains(&&*a.name))
            .collect();
        let attrs = rel.schema().attributes().iter().zip(&wide).map(|(a, &w)| {
            let dtype = if w { DataType::Str } else { a.dtype };
            Attribute::qualified(table, a.name, dtype)
        });
        let schema = Schema::new(attrs.collect());
        let rows = rel
            .tuples()
            .iter()
            .map(|t| {
                let values = t.values().iter().zip(&wide);
                values
                    .map(|(v, &w)| match w {
                        true => Value::Str(format!("{:0>width$}", v.as_i64().unwrap()).into()),
                        false => v.clone(),
                    })
                    .collect()
            })
            .collect();
        db.create_or_replace_table(table, Relation::from_rows(schema, rows));
    }
    db
}

/// Runs a grace inner and left-outer join, an external merge sort and a
/// partitioned aggregation (grouped by `group`, summing `summed`) over `db`
/// under `budget`: each must exhaust without spilling and, with spilling,
/// reproduce the resident run row for row.
fn out_of_core_reproduces_exact_row_order(
    input: &str,
    db: &Database,
    budget: u64,
    (group, summed): (&str, &str),
) {
    // Self-join on the Gaussian `b` values: ~600 distinct keys, so grace
    // partitioning is effective (a low-cardinality key like `g` would pack
    // whole key groups into single partitions), and every left row matches
    // itself, so the join output stays full-size for the sort and
    // aggregation plans below.
    let inner_join = || {
        PlanBuilder::scan(db, "r1")
            .unwrap()
            .join(
                PlanBuilder::scan_as(db, "r1", Some("o")).unwrap().build(),
                eq(qcol("r1", "b"), qcol("o", "b")),
            )
            .build()
    };
    // Equality on the Gaussian `a` values matches almost never, so nearly
    // every left row takes the left-outer NULL-padding path.
    let outer_join = PlanBuilder::scan(db, "r1")
        .unwrap()
        .left_join(
            PlanBuilder::scan_as(db, "r2", Some("o")).unwrap().build(),
            eq(qcol("r1", "a"), qcol("o", "a")),
        )
        .build();
    let sorted = PlanBuilder::from_plan(inner_join())
        .sort(vec![
            SortKey::desc(qcol("r1", "b")),
            SortKey::asc(qcol("o", "a")),
        ])
        .build();
    let grouped = PlanBuilder::from_plan(inner_join())
        .aggregate(
            vec![ProjectItem::new(qcol("r1", group), group)],
            vec![count_star("n"), sum(qcol("o", summed), "total")],
        )
        .build();
    for (operator, plan) in [
        ("grace inner join", inner_join()),
        ("grace left-outer join", outer_join),
        ("external merge sort", sorted),
        ("partitioned aggregation", grouped),
    ] {
        let label = format!("{operator}{input}");
        let reference = Executor::new(db).execute(&plan).unwrap();
        let budget = Some(budget);
        let starved = Executor::new(db).with_memory_budget(budget).execute(&plan);
        assert!(
            matches!(starved, Err(ExecError::ResourceExhausted { .. })),
            "{label}: the budget must exhaust the spill-less executor, got {starved:?}"
        );
        let ex = Executor::new(db)
            .with_memory_budget(budget)
            .with_spill(true);
        let got = ex.execute(&plan).unwrap();
        assert_eq!(
            reference, got,
            "{label}: out-of-core output must be row-for-row identical"
        );
        assert!(ex.spilled_bytes() > 0, "{label}: must actually spill");
        assert!(
            ex.spill_partitions() > 0,
            "{label}: must create partition files or runs"
        );
        assert_eq!(
            ex.stats().degradation,
            Degradation::SpilledToDisk,
            "{label}: spilling must stop the ladder at its first rung"
        );
        assert!(
            ex.buffer_pool_hits() + ex.buffer_pool_misses() > 0,
            "{label}: spilled state must be read back through the pool"
        );
    }
}

#[test]
fn spill_forced_corpus_reproduces_reference_bags_and_operator_counts() {
    let db = build_database(24, 18, 0xD1FF);
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let dir = std::env::temp_dir();
    let mut spilled_total = 0u64;
    let mut spilled_plans = 0usize;
    let mut reclaimed_plans = 0usize;
    for i in 0..PLANS {
        let plan = random_plan(&db, &mut rng);
        let reference_ex = Executor::new(&db);
        let reference = reference_ex.execute(&plan);
        let spill_ex = Executor::new(&db)
            .with_memory_budget(Some(1 << 10))
            .with_spill(true)
            .with_spill_dir(Some(dir.clone()));
        let result = spill_ex.execute(&plan);
        let reclaimed = spill_ex.stats().degradation >= Degradation::ReclaimedMemos;
        reclaimed_plans += usize::from(reclaimed);
        match (&reference, &result) {
            (Ok(want), Ok(got)) => {
                assert!(
                    want.bag_eq(got),
                    "plan {i}: spilling changed the bag\n{}",
                    perm_algebra::display::explain(&plan)
                );
                let (want_ops, got_ops) = (
                    reference_ex.operators_evaluated(),
                    spill_ex.operators_evaluated(),
                );
                if reclaimed {
                    assert!(
                        got_ops >= want_ops,
                        "plan {i}: a dropped memo entry is recomputed, never skipped\n{}",
                        perm_algebra::display::explain(&plan)
                    );
                } else {
                    assert_eq!(
                        want_ops,
                        got_ops,
                        "plan {i}: spilling operator state re-executes nothing\n{}",
                        perm_algebra::display::explain(&plan)
                    );
                }
            }
            (Err(want), Err(got)) => assert_eq!(want, got, "plan {i}"),
            _ => panic!(
                "plan {i}: spilling flipped success/failure: reference {reference:?} \
                 vs spilled {result:?}\n{}",
                perm_algebra::display::explain(&plan)
            ),
        }
        if spill_ex.spilled_bytes() > 0 {
            spilled_plans += 1;
            spilled_total += spill_ex.spilled_bytes();
        }
    }
    assert!(
        spilled_plans >= PLANS / 10,
        "the starvation budget must actually force operator spilling, \
         got {spilled_plans}/{PLANS} plans ({spilled_total} bytes)"
    );
    assert!(
        reclaimed_plans > 0,
        "the starvation budget must also drop memo entries"
    );
}

#[test]
fn resilience_counters_are_monotone_across_executions() {
    let db = build_database(24, 18, 0xD1FF);
    let ex = Executor::new(&db).with_memory_budget(Some(16 << 20));
    let mut last_checks = 0u64;
    let mut last_peak = 0u64;
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for _ in 0..8 {
        let plan = random_plan(&db, &mut rng);
        let _ = ex.execute(&plan);
        let checks = ex.stats().cancel_checks;
        let peak = ex.stats().peak_bytes;
        assert!(
            checks > last_checks,
            "every execution passes at least one checkpoint"
        );
        assert!(peak >= last_peak, "peak_bytes is a high-water mark");
        last_checks = checks;
        last_peak = peak;
    }
}

#[test]
fn streaming_cursor_honours_a_cancel_handle_mid_stream() {
    use perm_algebra::builder::PlanBuilder;
    let db = seam_database(BATCH_ROWS + 1);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .select(cmp(CompareOp::Ge, qcol("t", "a"), lit(0)))
        .build();
    let ex = Executor::new(&db);
    let compiled = ex.prepare(&plan).unwrap();
    let mut rows = ex.open(&compiled).unwrap();
    let handle = rows.cancel_handle();
    assert!(rows.next().unwrap().is_ok(), "stream starts healthy");
    handle.cancel("user abort");
    // Buffered rows may still drain; the next refill must fail cleanly.
    let tail_error = rows
        .by_ref()
        .find_map(|r| r.err())
        .expect("a cancelled cursor must surface the cancellation");
    assert_eq!(
        tail_error,
        ExecError::Cancelled {
            reason: "user abort".into()
        }
    );
    assert!(rows.next().is_none(), "a failed cursor stays terminated");
}

#[test]
fn vectorized_fallback_rows_are_counted_and_memo_behaviour_is_unchanged() {
    // The sublink seam: on a batched execution a correlated sublink is
    // looked up once per outer row, under that row's binding (visible on
    // `batch_fallback_rows`), while the memo still collapses the sublink to
    // one execution per distinct binding.
    let rows = BATCH_ROWS + 1;
    let db = seam_database(rows);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .select(exists_sublink(
            PlanBuilder::scan(&db, "u")
                .unwrap()
                .select(eq(qcol("u", "g"), qcol("t", "g")))
                .build(),
        ))
        .build();
    let ex = Executor::new(&db);
    ex.execute(&plan).unwrap();
    assert_eq!(
        ex.batch_fallback_rows(),
        rows as u64,
        "every outer row is looked up on its own"
    );
    assert!(ex.batches_vectorized() > 0, "the spine still vectorizes");
    // scan t + select + 7 distinct g bindings × (select + scan u).
    assert_eq!(ex.operators_evaluated(), 2 + 7 * 2);

    // Per-tuple mode never vectorizes, and counts identically.
    let per_tuple = Executor::new(&db).with_batching(false);
    per_tuple.execute(&plan).unwrap();
    assert_eq!(per_tuple.batches_vectorized(), 0);
    assert_eq!(per_tuple.operators_evaluated(), 2 + 7 * 2);
    assert_eq!(per_tuple.batch_fallback_rows(), rows as u64);
}
