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
//! Everything after the rewrite — including turning a selection left
//! directly above a cross product into a join — is the optimizer's, in
//! `perm_exec::optimize`.

use crate::builder::conjunction;
use crate::expr::{BinaryOp, Expr};
use crate::plan::{JoinKind, Plan, PlanRef};
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

/// Which side(s) of a binary operator a conjunct references.
#[derive(Debug, PartialEq, Eq)]
enum Placement {
    Left,
    Right,
    Both,
    /// References something that is not resolvable against either side
    /// (correlated attributes, ambiguous names) — keep it where it is.
    Unknown,
}

fn classify(conjunct: &Expr, left: &Schema, right: &Schema) -> Placement {
    if conjunct.has_sublink() {
        return Placement::Unknown;
    }
    let refs = conjunct.column_refs();
    if refs.is_empty() {
        // Constant predicates can stay at the top.
        return Placement::Unknown;
    }
    let mut uses_left = false;
    let mut uses_right = false;
    for &(qualifier, name) in &refs {
        let in_left = matches!(left.try_resolve(qualifier, name), Ok(Some(_)));
        let in_right = matches!(right.try_resolve(qualifier, name), Ok(Some(_)));
        match (in_left, in_right) {
            (true, false) => uses_left = true,
            (false, true) => uses_right = true,
            // Resolvable on both sides (ambiguous) or on neither
            // (correlated): do not move the conjunct.
            _ => return Placement::Unknown,
        }
    }
    match (uses_left, uses_right) {
        (true, false) => Placement::Left,
        (false, true) => Placement::Right,
        (true, true) => Placement::Both,
        (false, false) => Placement::Unknown,
    }
}

/// Recursively pushes selection conjuncts towards the scans, bottom-up,
/// in every operator's children and in the plans of its sublinks.
pub fn push_down_selections(plan: Plan) -> Plan {
    pushed(&PlanRef::new(plan)).into_plan()
}

/// [`push_down_selections`] over a shared node: operators without a
/// selection at or below them are handed back as they are.
fn pushed(node: &PlanRef) -> PlanRef {
    let mapped = node.map_children(pushed);
    let mapped = mapped
        .as_ref()
        .unwrap_or(node)
        .map_sublinks(pushed)
        .or(mapped);
    match mapped.as_ref().unwrap_or(node) {
        Plan::Select { input, predicate } => {
            let conjuncts = split_conjuncts(predicate).into_iter().cloned().collect();
            let (pushed, residual) = push_into(input.clone(), conjuncts);
            PlanRef::new(wrap_select(pushed, residual))
        }
        _ => node.or_changed(mapped),
    }
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
            Placement::Left => to_left.push(conjunct),
            Placement::Right => to_right.push(conjunct),
            Placement::Both => join_conjuncts.push(conjunct),
            Placement::Unknown => residual.push(conjunct),
        }
    }

    let (left, left_rest) = push_into(left, to_left);
    let left = wrap_select(left, left_rest);
    let (right, right_rest) = push_into(right, to_right);
    let right = wrap_select(right, right_rest);

    let plan = match (existing_condition, join_conjuncts.is_empty()) {
        (None, true) => Plan::CrossProduct {
            left: PlanRef::new(left),
            right: PlanRef::new(right),
        },
        (None, false) => Plan::Join {
            left: PlanRef::new(left),
            right: PlanRef::new(right),
            kind: JoinKind::Inner,
            condition: conjunction(join_conjuncts),
        },
        (Some(condition), true) => Plan::Join {
            left: PlanRef::new(left),
            right: PlanRef::new(right),
            kind: JoinKind::Inner,
            condition,
        },
        (Some(condition), false) => Plan::Join {
            left: PlanRef::new(left),
            right: PlanRef::new(right),
            kind: JoinKind::Inner,
            condition: crate::builder::and(condition, conjunction(join_conjuncts)),
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
