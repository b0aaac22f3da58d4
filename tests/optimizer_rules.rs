//! The optimizer's rules, executed: each plan of the `perm-optimize` unit
//! tests (shared through `shapes.rs`, included below by path) runs as
//! optimized through the compiled executor and as written through the
//! reference interpreter, and the two must agree — as bags, as row lists
//! where a `LIMIT` reads a prefix, and in the errors they raise. The unit
//! test of the same name in `perm-optimize` checks what the rules made of
//! the plan; this file keeps that crate free of any executor edge.

use perm_exec::Executor;
use perm_optimize::{optimize, push_down_selections};
use perm_storage::{Database, Relation, Value};

// Plans the unit tests only inspect (a scalar comparison's report, the
// composition cases that fail at runtime) are not executed here.
#[allow(dead_code)]
#[path = "../crates/optimize/tests/common/shapes.rs"]
mod shapes;

use shapes::*;

fn bags_equal(mut a: Vec<String>, mut b: Vec<String>) -> bool {
    a.sort();
    b.sort();
    a == b
}

fn rows(r: &Relation) -> Vec<String> {
    r.tuples().iter().map(|t| format!("{t:?}")).collect()
}

/// `optimized` run compiled gives the bag `reference` gives interpreted.
fn assert_same_bag(db: &Database, reference: &perm_algebra::Plan, optimized: &perm_algebra::Plan) {
    let exec = Executor::new(db);
    let want = exec.execute_unoptimized(reference).unwrap();
    let got = exec.execute(optimized).unwrap();
    assert!(
        bags_equal(rows(&want), rows(&got)),
        "{} rows vs {} reference rows\n{}",
        got.len(),
        want.len(),
        perm_algebra::display::explain(optimized)
    );
}

/// [`assert_same_bag`] of `plan` and what [`optimize`] makes of it.
fn optimizes_to_the_same_bag(db: &Database, plan: &perm_algebra::Plan) {
    assert_same_bag(db, plan, &optimize(plan).0);
}

#[test]
fn decorrelates_correlated_exists_into_semi_join() {
    let db = db();
    optimizes_to_the_same_bag(&db, &correlated_exists(&db));
}

#[test]
fn decorrelates_not_exists_into_anti_join() {
    let db = db();
    optimizes_to_the_same_bag(&db, &not_exists(&db));
}

#[test]
fn decorrelates_any_equality_into_semi_join() {
    let db = db();
    optimizes_to_the_same_bag(&db, &any_equality(&db));
}

#[test]
fn decorrelates_exists_with_star_projection() {
    let db = db();
    optimizes_to_the_same_bag(&db, &exists_with_star(&db));
}

#[test]
fn decorrelation_lowers_operator_count() {
    let db = db();
    let plan = correlated_exists(&db);
    let (optimized, _) = optimize(&plan);
    let exec = Executor::new(&db);
    exec.execute_unoptimized(&plan).unwrap();
    let ops_ref = exec.operators_evaluated();
    let exec2 = Executor::new(&db);
    exec2.execute(&optimized).unwrap();
    let ops_opt = exec2.operators_evaluated();
    assert!(
        ops_opt < ops_ref,
        "decorrelated {ops_opt} ops vs reference {ops_ref}"
    );
}

#[test]
fn prunes_unused_projection_columns() {
    let db = db();
    optimizes_to_the_same_bag(&db, &narrowed_projection(&db));
}

#[test]
fn gen_shaped_exists_becomes_hash_joins_without_a_cross_product() {
    let db = db();
    optimizes_to_the_same_bag(&db, &gen_shaped(&db, false, hoistable()));
}

#[test]
fn gen_shaped_not_exists_splits_into_a_union_of_join_plans() {
    let db = db();
    optimizes_to_the_same_bag(&db, &gen_shaped(&db, true, hoistable()));
}

#[test]
fn a_selection_the_new_rules_cannot_finish_keeps_its_old_shape() {
    let db = db();
    optimizes_to_the_same_bag(&db, &gen_shaped(&db, true, unhoistable()));
}

#[test]
fn grouped_aggregate_body_keeps_the_empty_group() {
    let db = db();
    let plan = empty_group_exists(&db);
    let (optimized, _) = optimize(&plan);
    let exec = Executor::new(&db);
    let got = exec.execute(&optimized).unwrap();
    assert_eq!(got.len(), 5, "the five r1 rows with g = 3");
    assert_same_bag(&db, &plan, &optimized);
}

#[test]
fn total_conjuncts_sink_onto_cross_product_factors() {
    let db = db();
    optimizes_to_the_same_bag(&db, &product_with_factor_conjuncts(&db));
}

#[test]
fn an_established_conjunct_moves_below_the_outer_join_and_collapses_its_condition() {
    let db = db();
    optimizes_to_the_same_bag(&db, &left_shaped(&db, uncorrelated_any(&db), None));
    optimizes_to_the_same_bag(&db, &t1_shaped(&db));
}

#[test]
fn only_conjuncts_reading_the_preserved_side_move() {
    let db = db();
    optimizes_to_the_same_bag(&db, &mixed_sides(&db));
}

#[test]
fn the_outer_join_pushdown_declines_what_it_cannot_prove() {
    let db = db();
    let plan = param_in_theta(&db);
    let (optimized, _) = optimize(&plan);
    let exec = Executor::new(&db);
    for bound in [Value::Int(7), Value::Null] {
        exec.bind_params(vec![bound]);
        let want = exec.execute_unoptimized(&plan).unwrap();
        assert!(exec.execute(&optimized).unwrap().bag_eq(&want));
    }
    optimizes_to_the_same_bag(&db, &sublink_under_or(&db));
}

#[test]
fn stacked_projections_compose_under_the_outer_names() {
    let db = db();
    optimizes_to_the_same_bag(&db, &stacked_projections(&db));
}

#[test]
fn composition_declines_what_it_cannot_prove() {
    let db = db();
    let cases = composition(&db);
    let exec = Executor::new(&db);
    assert!(exec.execute_unoptimized(&cases.shielded).is_err());
    assert!(exec.execute(&optimize(&cases.shielded).0).is_err());
    assert!(exec.execute(&optimize(&cases.passed).0).is_err());
    optimizes_to_the_same_bag(&db, &cases.twice);
    for distinct in &cases.distinct {
        optimizes_to_the_same_bag(&db, distinct);
    }
}

#[test]
fn a_sort_moves_below_the_fan_out_and_keeps_the_row_sequence() {
    let db = db();
    let plan = sorted_fan_out(&db);
    let (optimized, _) = optimize(&plan);
    let exec = Executor::new(&db);
    let want = exec.execute_unoptimized(&plan).unwrap();
    assert_eq!(exec.execute(&optimized).unwrap().tuples(), want.tuples());
}

#[test]
fn fuse_turns_residual_select_over_cross_into_join() {
    let db = db();
    let cases = fusion(&db);
    for plan in [
        &cases.product,
        &cases.nested,
        &cases.over_join,
        &cases.sublink_over_join,
    ] {
        optimizes_to_the_same_bag(&db, plan);
    }
}

#[test]
fn optimization_preserves_the_schema() {
    let db = db();
    let plan = projected_product(&db);
    let pushed = push_down_selections(plan.clone());
    for optimized in [optimize(&plan).0, optimize(&pushed).0, pushed] {
        assert_same_bag(&db, &plan, &optimized);
    }
}

#[test]
fn an_absorbing_literal_on_the_right_folds_only_a_total_left_operand() {
    let db = db();
    optimizes_to_the_same_bag(&db, &outer_join_or_true(&db));
}
