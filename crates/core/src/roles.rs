//! Influence roles of sublinks and the auxiliary sets `Tsub_true` /
//! `Tsub_false` (Section 2.3).
//!
//! A sublink `Csub` can play three roles in a condition `C` for a given input
//! tuple `t`:
//!
//! * `reqtrue`  — `C` is fulfilled only if `Csub` is true,
//! * `reqfalse` — `C` is fulfilled only if `Csub` is false,
//! * `ind`      — `C` is fulfilled independently of the result of `Csub`.
//!
//! The role determines which part of the sublink query result contributes to
//! the provenance (Figure 2). Under the extended contribution definition
//! (Definition 2) the `ind` role disappears, because the provenance is
//! additionally required to reproduce the original sublink result.

use crate::Result;
use perm_algebra::builder::lit;
use perm_algebra::{CompareOp, Expr};
use perm_exec::eval::compare;
use perm_exec::{Env, Executor, Interpreter};
use perm_storage::{Relation, Truth, Value};

/// The influence role of a sublink within a condition, for one input tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfluenceRole {
    /// The condition holds only if the sublink evaluates to true.
    ReqTrue,
    /// The condition holds only if the sublink evaluates to false.
    ReqFalse,
    /// The condition holds regardless of the sublink result.
    Ind,
    /// The condition is false regardless of the sublink result (the input
    /// tuple does not produce an output tuple, so no provenance is derived
    /// from it).
    Unsatisfiable,
}

impl std::fmt::Display for InfluenceRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            InfluenceRole::ReqTrue => "reqtrue",
            InfluenceRole::ReqFalse => "reqfalse",
            InfluenceRole::Ind => "ind",
            InfluenceRole::Unsatisfiable => "unsatisfiable",
        };
        write!(f, "{s}")
    }
}

/// Replaces the `index`-th sublink of `expr` ([`Expr::sublinks`] order)
/// with a constant and leaves the other sublinks in place. The sublink is
/// found by address: the rewriter's post-order differs from that order
/// where a sublink sits in another's test expression, and it hands `f` a
/// node as it is in `expr` until something below it changes.
fn with_sublink_forced(expr: &Expr, index: usize, value: bool) -> Expr {
    let target = expr.sublinks().get(index).copied();
    expr.rewrite(&mut |e| {
        target
            .is_some_and(|t| std::ptr::eq(e, t))
            .then(|| lit(value))
    })
    .unwrap_or_else(|| expr.clone())
}

/// Determines the influence role of the `index`-th sublink of `condition`
/// for the input tuple bound in `env`, by evaluating the condition with the
/// sublink forced to `true` and to `false` (the remaining sublinks are
/// evaluated normally, by a reference interpreter of this call's own).
pub fn influence_role(
    executor: &Executor<'_>,
    condition: &Expr,
    index: usize,
    env: Option<&Env<'_>>,
) -> Result<InfluenceRole> {
    let forced_true = with_sublink_forced(condition, index, true);
    let forced_false = with_sublink_forced(condition, index, false);
    let interp = Interpreter::new(executor);
    let when_true = interp.eval_predicate(&forced_true, env)?.is_true();
    let when_false = interp.eval_predicate(&forced_false, env)?.is_true();
    Ok(match (when_true, when_false) {
        (true, true) => InfluenceRole::Ind,
        (true, false) => InfluenceRole::ReqTrue,
        (false, true) => InfluenceRole::ReqFalse,
        (false, false) => InfluenceRole::Unsatisfiable,
    })
}

/// The auxiliary set `Tsub_true(t) = { t' ∈ Tsub | t.A op t' }` for an
/// `ANY`/`ALL` sublink: the sublink-result tuples that satisfy the comparison
/// against the already-evaluated test value.
pub fn sub_true(test_value: &Value, op: CompareOp, sublink_result: &Relation) -> Relation {
    partition(test_value, op, sublink_result, true)
}

/// The auxiliary set `Tsub_false(t) = { t' ∈ Tsub | ¬(t.A op t') }`.
pub fn sub_false(test_value: &Value, op: CompareOp, sublink_result: &Relation) -> Relation {
    partition(test_value, op, sublink_result, false)
}

fn partition(test_value: &Value, op: CompareOp, result: &Relation, keep_true: bool) -> Relation {
    let mut out = Relation::empty(result.schema().clone());
    for tuple in result.tuples() {
        let satisfied = compare(op, test_value, tuple.get(0)) == Truth::True;
        if satisfied == keep_true {
            out.push_unchecked(tuple.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::builder::{any_sublink, col, eq, lit, not, or, PlanBuilder};
    use perm_algebra::CompareOp;
    use perm_storage::{Database, Schema, Tuple};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::from_names(&["a", "b"]).with_qualifier("r"),
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
                Schema::from_names(&["c"]).with_qualifier("s"),
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                    vec![Value::Int(4)],
                ],
            ),
        )
        .unwrap();
        db
    }

    fn role_for(condition: &Expr, tuple: Vec<Value>) -> InfluenceRole {
        let db = db();
        let executor = Executor::new(&db);
        let schema = Schema::from_names(&["a", "b"]).with_qualifier("r");
        let t = Tuple::new(tuple);
        let env = Env::new(None, &schema, &t);
        influence_role(&executor, condition, 0, Some(&env)).unwrap()
    }

    #[test]
    fn plain_sublink_condition_is_reqtrue_when_tuple_matches() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let cond = any_sublink(col("a"), CompareOp::Eq, sub);
        assert_eq!(
            role_for(&cond, vec![Value::Int(1), Value::Int(1)]),
            InfluenceRole::ReqTrue
        );
    }

    #[test]
    fn negated_sublink_is_reqfalse() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let cond = not(any_sublink(col("a"), CompareOp::Eq, sub));
        assert_eq!(
            role_for(&cond, vec![Value::Int(9), Value::Int(1)]),
            InfluenceRole::ReqFalse
        );
    }

    #[test]
    fn disjunction_with_true_branch_is_ind() {
        // σ_{a = 2 ∨ a = ANY S}(R) for tuple (2, 1): the first disjunct is
        // already true, so the sublink is ind (the Section 2.5 false-positive
        // example).
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let cond = or(
            eq(col("a"), lit(2)),
            any_sublink(col("a"), CompareOp::Eq, sub),
        );
        assert_eq!(
            role_for(&cond, vec![Value::Int(2), Value::Int(1)]),
            InfluenceRole::Ind
        );
        // For tuple (1, 1) the first disjunct is false, so the sublink is
        // required to be true.
        assert_eq!(
            role_for(&cond, vec![Value::Int(1), Value::Int(1)]),
            InfluenceRole::ReqTrue
        );
    }

    #[test]
    fn unsatisfiable_condition() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let cond = perm_algebra::builder::and(
            eq(col("a"), lit(999)),
            any_sublink(col("a"), CompareOp::Eq, sub),
        );
        assert_eq!(
            role_for(&cond, vec![Value::Int(1), Value::Int(1)]),
            InfluenceRole::Unsatisfiable
        );
    }

    #[test]
    fn sub_true_and_sub_false_partition_the_result() {
        let schema = Schema::from_names(&["c"]);
        let result = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(4)],
            ],
        );
        let t = sub_true(&Value::Int(2), CompareOp::Ge, &result);
        let f = sub_false(&Value::Int(2), CompareOp::Ge, &result);
        assert_eq!(t.len(), 2); // 1 and 2 satisfy 2 >= c
        assert_eq!(f.len(), 1); // 4 does not
        assert_eq!(t.len() + f.len(), result.len());
    }
}
