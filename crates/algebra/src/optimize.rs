//! The binder's selection pushdown.
//!
//! The original Perm system hands both the original and the rewritten query
//! to the PostgreSQL planner, which pushes selections into joins.
//! [`push_down_selections`] does that to every bound plan: it splits
//! selection predicates into conjuncts and pushes them towards the scans —
//! conjuncts referencing only one side of a cross product / inner join move
//! into that side, conjuncts referencing both sides become the join
//! condition. Conjuncts containing sublinks are never moved, so the
//! provenance rewrite rules (which match on selections containing sublinks)
//! still see them. Left outer joins are left untouched (pushing through them
//! would change semantics).
//!
//! A conjunct moves onto a side only when every column it reads names an
//! attribute of that side alone ([`side_of`], the optimizer's side test
//! too): a name ambiguous within a side counts as present there, so the
//! conjunct stays above, where evaluating it fails as it should. The
//! pushdown is a rule of the same bottom-up rewrite the optimizer's passes
//! run under ([`PlanRef::rewrite_up`]).
//!
//! Everything after the rewrite — including turning a selection left
//! directly above a cross product into a join — is the optimizer's, in
//! `perm_exec::optimize`.

use crate::builder::{and, conjunction};
use crate::expr::{BinaryOp, Expr};
use crate::plan::{JoinKind, Plan, PlanRef};
use crate::visit::{side_of, Side};
use perm_storage::Schema;

/// The top-level conjuncts of a predicate, borrowed, left to right.
pub fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    fn walk<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
        if let Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } = expr
        {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(expr);
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Which side of a binary operator a conjunct can run on ([`side_of`]
/// over its columns): `None` keeps it where it is — it holds a sublink,
/// reads no column (a constant predicate stays at the top), or reads a
/// column that does not name an attribute of exactly one side (correlated,
/// known to both sides, or ambiguous within one).
fn classify(conjunct: &Expr, left: &Schema, right: &Schema) -> Option<Side> {
    if conjunct.has_sublink() {
        return None;
    }
    side_of(&conjunct.column_refs(), left, right)
}

/// Pushes selection conjuncts towards the scans, in every operator's
/// children and in the plans of its sublinks: a rule of the one bottom-up
/// rewrite ([`PlanRef::rewrite_up`]), so operators without a selection at or
/// below them are handed back as they are.
pub fn push_down_selections(plan: Plan) -> Plan {
    PlanRef::new(plan)
        .rewrite_up(None, true, &mut |node, _| match &**node {
            Plan::Select { input, predicate } => {
                let conjuncts = split_conjuncts(predicate).into_iter().cloned().collect();
                let (pushed, residual) = push_into(input.clone(), conjuncts);
                Some(PlanRef::new(wrap_select(pushed, residual)))
            }
            _ => None,
        })
        .into_plan()
}

/// Pushes the given conjuncts as deep into `plan` as allowed, returning the
/// rewritten plan and the conjuncts that could not be placed anywhere below.
fn push_into(plan: PlanRef, conjuncts: Vec<Expr>) -> (Plan, Vec<Expr>) {
    match plan.into_plan() {
        Plan::Select { input, predicate } => {
            let mut all = conjuncts;
            all.extend(split_conjuncts(&predicate).into_iter().cloned());
            push_into(input, all)
        }
        Plan::CrossProduct { left, right } => push_into_binary(left, right, None, conjuncts),
        Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            condition,
        } => push_into_binary(left, right, Some(condition), conjuncts),
        other => (other, conjuncts),
    }
}

/// Distributes conjuncts over the two sides of a cross product or inner
/// join. `existing_condition` is the join condition of an inner join (kept
/// in place), `None` for a cross product.
fn push_into_binary(
    left: PlanRef,
    right: PlanRef,
    existing_condition: Option<Expr>,
    conjuncts: Vec<Expr>,
) -> (Plan, Vec<Expr>) {
    let left_schema = left.schema();
    let right_schema = right.schema();
    let mut to_left = Vec::new();
    let mut to_right = Vec::new();
    let mut join_conjuncts = Vec::new();
    let mut residual = Vec::new();
    for conjunct in conjuncts {
        match classify(&conjunct, &left_schema, &right_schema) {
            Some(Side::Left) => to_left.push(conjunct),
            Some(Side::Right) => to_right.push(conjunct),
            Some(Side::Both) => join_conjuncts.push(conjunct),
            None => residual.push(conjunct),
        }
    }

    let (left, left_rest) = push_into(left, to_left);
    let left = wrap_select(left, left_rest);
    let (right, right_rest) = push_into(right, to_right);
    let right = wrap_select(right, right_rest);

    let (left, right) = (PlanRef::new(left), PlanRef::new(right));
    let joined = (!join_conjuncts.is_empty()).then(|| conjunction(join_conjuncts));
    let plan = match existing_condition.into_iter().chain(joined).reduce(and) {
        None => Plan::CrossProduct { left, right },
        Some(condition) => Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            condition,
        },
    };
    (plan, residual)
}

fn wrap_select(plan: Plan, residual: Vec<Expr>) -> Plan {
    if residual.is_empty() {
        plan
    } else {
        Plan::Select {
            input: PlanRef::new(plan),
            predicate: conjunction(residual),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, count_star, eq, exists_sublink, lit, PlanBuilder};
    use crate::plan::{ProjectItem, SortKey};
    use perm_storage::{Database, Relation, Schema};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::empty(Schema::from_names(&["a", "b"]).with_qualifier("r")),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::empty(Schema::from_names(&["c", "d"]).with_qualifier("s")),
        )
        .unwrap();
        db
    }

    #[test]
    fn split_conjuncts_flattens_nested_ands() {
        let e = crate::builder::and(
            crate::builder::and(eq(col("a"), lit(1)), eq(col("b"), lit(2))),
            eq(col("c"), lit(3)),
        );
        assert_eq!(split_conjuncts(&e).len(), 3);
    }

    #[test]
    fn pushdown_turns_cross_product_into_join() {
        let db = db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(s)
            .select(crate::builder::and(
                eq(col("a"), col("c")),
                crate::builder::and(eq(col("b"), lit(1)), eq(col("d"), lit(2))),
            ))
            .build();
        let optimized = push_down_selections(q);
        match optimized {
            Plan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                ..
            } => {
                assert!(
                    matches!(*left, Plan::Select { .. }),
                    "b=1 pushed to the left side"
                );
                assert!(
                    matches!(*right, Plan::Select { .. }),
                    "d=2 pushed to the right side"
                );
            }
            other => panic!("expected a join, got {other:?}"),
        }
    }

    #[test]
    fn pushdown_keeps_sublink_conjuncts_in_the_selection() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(s)
            .select(crate::builder::and(
                eq(col("a"), col("c")),
                exists_sublink(sub),
            ))
            .build();
        let optimized = push_down_selections(q);
        match optimized {
            Plan::Select { input, predicate } => {
                assert!(predicate.has_sublink());
                assert!(matches!(*input, Plan::Join { .. }));
            }
            other => panic!("expected a residual selection, got {other:?}"),
        }
    }

    #[test]
    fn pushdown_reaches_sublink_plans_in_aggregate_and_sort_expressions() {
        let db = db();
        // `r` grouped by, then sorted on, `EXISTS (sub)`.
        let over = |sub: &Plan| {
            let exists = || exists_sublink(sub.clone());
            PlanBuilder::scan(&db, "r")
                .unwrap()
                .aggregate(
                    vec![ProjectItem::new(exists(), "hit")],
                    vec![count_star("n")],
                )
                .sort(vec![SortKey::asc(exists())])
                .build()
        };
        let sub = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(PlanBuilder::scan(&db, "s").unwrap().build())
            .select(crate::builder::and(
                eq(col("a"), col("c")),
                eq(col("d"), lit(2)),
            ))
            .build();
        let pushed = push_down_selections(sub.clone());
        assert!(
            matches!(&pushed, Plan::Join { right, .. } if matches!(**right, Plan::Select { .. }))
        );
        assert_eq!(push_down_selections(over(&sub)), over(&pushed));
    }
}
