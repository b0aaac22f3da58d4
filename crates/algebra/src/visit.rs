//! Plan and expression analysis helpers used by the provenance rewriter and
//! the optimizer: correlation detection, totality, base-relation collection
//! and sublink counting.
//!
//! **Scope rule.** Every analysis here reads an expression through
//! [`Expr::walk`], which states the rule once: a sublink's *test
//! expression* belongs to the scope of the operator holding the sublink (it
//! is evaluated there, row by row), while the sublink's *plan* is a scope of
//! its own, entered only through the plan's cached properties
//! ([`PlanRef::free_columns`], [`PlanRef::is_total`]) or by an explicit
//! recursion over the plan. No function here descends into a test
//! expression by hand.
//!
//! **Resolution rule.** A column resolves along one [`Scopes`] chain, the
//! same for the totality checks, the optimizer and the executor's compiler
//! (the interpreter's `Env::lookup` is its runtime mirror).

use crate::expr::{BinaryOp, Expr, SublinkKind, UnaryOp};
use crate::plan::{ColumnRef, Plan, PlanRef};
use perm_storage::{Name, Schema, Value};

/// A reference to a base relation access inside a plan, in occurrence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaseRelationRef {
    /// Catalog name of the relation.
    pub table: String,
    /// Alias used in the query, when present.
    pub alias: Option<String>,
}

/// Collects the base relations accessed by `plan` in left-to-right,
/// depth-first occurrence order. When `include_sublinks` is `true`, base
/// relations accessed inside sublink plans are included as well (this is
/// `Base(Tsub)` in the paper, used to build `CrossBase(Tsub)`), the plans of
/// sublinks nested in test expressions too.
pub fn collect_base_relations(plan: &Plan, include_sublinks: bool) -> Vec<BaseRelationRef> {
    let mut out = Vec::new();
    collect_base_relations_into(plan, include_sublinks, &mut out);
    out
}

fn collect_base_relations_into(
    plan: &Plan,
    include_sublinks: bool,
    out: &mut Vec<BaseRelationRef>,
) {
    if let Plan::Scan { table, alias, .. } = plan {
        out.push(BaseRelationRef {
            table: table.clone(),
            alias: alias.clone(),
        });
    }
    for child in plan.inputs() {
        collect_base_relations_into(child, include_sublinks, out);
    }
    if include_sublinks {
        plan.walk_expressions(&mut |expr| {
            expr.walk(&mut |e| {
                if let Expr::Sublink { plan: sub, .. } = e {
                    collect_base_relations_into(sub, include_sublinks, out);
                }
            })
        });
    }
}

/// Column references of `plan` that cannot be resolved against the plan's own
/// scopes — i.e. the *correlated* attribute references that must be bound by
/// an enclosing query (Section 2.2: "correlation attribute references have to
/// reference an attribute from the input of the operator or, in the case of
/// nested sublinks, an attribute from a containing sublink"). The operator's
/// own expressions are checked against its [`Plan::scope`]; below it, the
/// children's and the sublink plans' cached lists are read
/// ([`PlanRef::free_columns`]).
pub fn free_columns(plan: &Plan) -> Vec<(Option<Name>, Name)> {
    let mut out = Vec::new();
    let mut scope = None;
    plan.walk_expressions(&mut |expr| {
        free_expr_columns_into(expr, scope.get_or_insert_with(|| plan.scope()), &mut out)
    });
    for child in plan.inputs() {
        out.extend_from_slice(child.free_columns());
    }
    out
}

/// Reports the column references of `expr` that `scope` cannot resolve —
/// the expression-level counterpart of [`free_columns`]. The optimizer uses
/// this to decide which conjuncts of a correlated sublink's predicate refer
/// to the enclosing scope.
pub fn free_expr_columns(expr: &Expr, scope: &Schema) -> Vec<(Option<Name>, Name)> {
    let mut out = Vec::new();
    free_expr_columns_into(expr, scope, &mut out);
    out
}

/// Calls `f` on every column reference `expr` reads in its own scope: its
/// [`Expr::column_refs`] (test expressions included), and the free columns
/// escaping each sublink plan ([`PlanRef::free_columns`]).
pub fn walk_column_refs(expr: &Expr, f: &mut impl FnMut(Option<Name>, Name)) {
    expr.walk(&mut |e| match e {
        Expr::Column { qualifier, name } => f(*qualifier, *name),
        Expr::Sublink { plan, .. } => {
            for &(q, n) in plan.free_columns() {
                f(q, n);
            }
        }
        _ => {}
    });
}

/// Reports the column references of `expr` ([`walk_column_refs`]) that
/// `scope` cannot resolve: a sublink's plan references escape further
/// outwards only where this scope does not bind them.
fn free_expr_columns_into(expr: &Expr, scope: &Schema, out: &mut Vec<(Option<Name>, Name)>) {
    walk_column_refs(expr, &mut |qualifier, name| {
        let resolvable = scope
            .try_resolve(qualifier, name)
            // Ambiguity means the name *is* present in the scope.
            .map(|r| r.is_some())
            .unwrap_or(true);
        if !resolvable {
            out.push((qualifier, name));
        }
    });
}

/// The *set* of free correlated column references of `plan`: the distinct
/// `(qualifier, name)` pairs of [`free_columns`], in first-occurrence order.
///
/// This is the correlation signature the executor's plan compiler uses to
/// parameterise a sublink: the result of executing `plan` as a sublink query
/// is a pure function of the database and the values bound to exactly these
/// references, so two outer tuples that agree on them must produce the same
/// sublink result. Two spellings of the same attribute (`b` and `r.b`) are
/// reported separately here; the compiler deduplicates them again after slot
/// resolution.
pub fn free_correlated_columns(plan: &Plan) -> Vec<(Option<Name>, Name)> {
    let mut out: Vec<(Option<Name>, Name)> = Vec::new();
    for c in free_columns(plan) {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// The set of query parameters (`$1`-style, 0-based indices) referenced
/// anywhere in `plan`, *including* inside nested sublink plans and their
/// test expressions, sorted and deduplicated.
///
/// Parameters are the second half of a sublink's memoization signature:
/// unlike correlated column references they are constant within one
/// execution, but they vary *between* executions of the same prepared plan,
/// so the executor folds the values bound to exactly these indices into the
/// sublink memo key alongside the correlation bindings.
pub fn free_params(plan: &Plan) -> Vec<usize> {
    let mut out = Vec::new();
    free_params_plan(plan, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn free_params_plan(plan: &Plan, out: &mut Vec<usize>) {
    plan.walk_expressions(&mut |expr| {
        expr.walk(&mut |e| match e {
            Expr::Param(index) => out.push(*index),
            Expr::Sublink { plan: sub, .. } => free_params_plan(sub, out),
            _ => {}
        })
    });
    for child in plan.inputs() {
        free_params_plan(child, out);
    }
}

/// Number of parameter slots a plan needs: one past the highest referenced
/// parameter index, or 0 when the plan is parameter-free. A plan referencing
/// only `$3` still needs three slots — the vector is positional.
pub fn param_count(plan: &Plan) -> usize {
    free_params(plan).last().map(|&i| i + 1).unwrap_or(0)
}

/// Every sublink of `plan`: those in its operators' expressions, nested in
/// their test expressions, and inside sublink plans at any depth.
pub fn count_sublinks(plan: &Plan) -> u64 {
    let mut n = 0;
    plan.walk_expressions(&mut |expr| {
        expr.walk(&mut |e| {
            if let Expr::Sublink { plan, .. } = e {
                n += 1 + count_sublinks(plan);
            }
        })
    });
    n + plan.inputs().map(|c| count_sublinks(c)).sum::<u64>()
}

/// A scope chain, innermost first: the schema an operator's expressions
/// resolve against, then the scope of the operator holding each enclosing
/// sublink. Each link borrows the next, so a chain lives on the stack.
#[derive(Debug, Clone, Copy)]
pub struct Scopes<'a> {
    /// The innermost scope.
    pub schema: &'a Schema,
    /// The scopes enclosing it, if any.
    pub parent: Option<&'a Scopes<'a>>,
}

impl<'a> Scopes<'a> {
    /// `schema` in front of the chain `parent`.
    pub fn new(schema: &'a Schema, parent: Option<&'a Scopes<'a>>) -> Scopes<'a> {
        Scopes { schema, parent }
    }

    /// The `(depth, index)` of a column reference, depth 0 innermost: the
    /// first scope that knows the name wins, and ambiguity there is an error
    /// (Section 2.2: an attribute of the input or of a containing sublink).
    /// `Ok(None)` when no scope knows the name.
    pub fn resolve(
        &self,
        qualifier: Option<Name>,
        name: Name,
    ) -> perm_storage::Result<Option<(usize, usize)>> {
        let mut depth = 0;
        let mut scope = Some(self);
        while let Some(s) = scope {
            if let Some(index) = s.schema.try_resolve(qualifier, name)? {
                return Ok(Some((depth, index)));
            }
            depth += 1;
            scope = s.parent;
        }
        Ok(None)
    }
}

/// `true` when a column reference resolves against a scope chain
/// ([`Scopes::resolve`]), mirroring the executor's environment lookup.
pub fn resolves(scopes: &Scopes<'_>, qualifier: Option<Name>, name: Name) -> bool {
    matches!(scopes.resolve(qualifier, name), Ok(Some(_)))
}

/// The side of a binary operator a set of columns reads ([`side_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
    Both,
}

/// The side of `left ⧺ right` that `refs` read when each names an attribute
/// of one side alone: it resolves there, and the other does not know it.
/// `None` for no references, or one that neither side, both sides or one
/// side twice knows (an ambiguous name is present in its side): a predicate
/// over it stays where it is.
pub fn side_of(refs: &[ColumnRef], left: &Schema, right: &Schema) -> Option<Side> {
    let mut side = None;
    for &(qualifier, name) in refs {
        let this = match (
            left.try_resolve(qualifier, name),
            right.try_resolve(qualifier, name),
        ) {
            (Ok(Some(_)), Ok(None)) => Side::Left,
            (Ok(None), Ok(Some(_))) => Side::Right,
            _ => return None,
        };
        side = Some(match side {
            Some(seen) if seen != this => Side::Both,
            _ => this,
        });
    }
    side
}

/// `true` when evaluating `expr` under the scope chain `scopes` can never
/// raise an error, for any row. This is the contract that lets an optimizer
/// rule move the expression to a place where it is evaluated on a different
/// set of rows. Deliberately conservative: arithmetic (division,
/// overflow-checked ops) and function calls are never total; a scalar
/// sublink only when its plan cannot violate the one-row, one-column
/// contract. A `$n` parameter is total: every execution entry refuses a
/// vector that leaves it unbound before the first operator runs, so during
/// evaluation it is a constant lookup. The expression is total when every
/// node [`Expr::all`] visits is — a sublink's test expression included, its
/// plan judged as a whole.
pub fn expr_is_total(expr: &Expr, scopes: &Scopes<'_>) -> bool {
    expr.all(&mut |e| node_is_total(e, scopes))
}

/// Whether `e` itself can fail, its operands aside.
fn node_is_total(e: &Expr, scopes: &Scopes<'_>) -> bool {
    match e {
        Expr::Column { qualifier, name } => resolves(scopes, *qualifier, *name),
        Expr::Literal(_) | Expr::Param(_) | Expr::Case { .. } => true,
        Expr::Binary { op, .. } => matches!(
            op,
            BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Cmp(_)
                | BinaryOp::NullSafeEq
                | BinaryOp::Like
                | BinaryOp::NotLike
                | BinaryOp::Concat
        ),
        // Negation fails on non-numbers; a negative numeric literal
        // (`BETWEEN -5 AND 5`) is the one operand known to be one, and
        // `-i64::MIN` does not overflow: it becomes a float.
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => matches!(
            expr.as_ref(),
            Expr::Literal(Value::Int(_) | Value::Float(_) | Value::Null)
        ),
        Expr::Unary { .. } => true,
        Expr::Func { .. } => false,
        Expr::Sublink {
            kind,
            test_expr,
            plan,
            ..
        } => {
            is_total_under(plan, Some(scopes))
                && match kind {
                    SublinkKind::Scalar => yields_one_row(plan) && plan.schema().arity() == 1,
                    SublinkKind::Exists => true,
                    SublinkKind::Any | SublinkKind::All => test_expr.is_some(),
                }
        }
    }
}

/// `true` when `plan` yields exactly one row whatever its input holds: a
/// global aggregate, possibly under projections and sorts.
pub fn yields_one_row(plan: &Plan) -> bool {
    match plan {
        Plan::Aggregate { group_by, .. } => group_by.is_empty(),
        Plan::Project { input, .. } | Plan::Sort { input, .. } => yields_one_row(input),
        Plan::Values { rows, .. } => rows.len() == 1,
        _ => false,
    }
}

/// `true` when executing `plan` (inside the enclosing scopes `outer`, if
/// any) can never raise an evaluation error. Comparisons, hash encodings,
/// sorting and every aggregate accumulator (`sum`/`avg` skip what they
/// cannot add) are error-free in this engine; a `$n` anywhere in the plan
/// is bound by the time it runs (see [`expr_is_total`]). A child total
/// outside any scope ([`PlanRef::is_total`], cached) is total under every
/// chain: an enclosing scope only resolves what the local ones do not.
pub fn plan_is_total(plan: &Plan, outer: Option<&Scopes<'_>>) -> bool {
    let mut scope = None;
    let mut total = plan.inputs().all(|p| is_total_under(p, outer));
    plan.walk_expressions(&mut |e| {
        total = total
            && expr_is_total(
                e,
                &Scopes::new(scope.get_or_insert_with(|| plan.scope()), outer),
            )
    });
    total
}

/// [`plan_is_total`] inside the enclosing scopes `outer`, the cached answer
/// outside any scope ([`PlanRef::is_total`]) first.
pub fn is_total_under(plan: &PlanRef, outer: Option<&Scopes<'_>>) -> bool {
    plan.is_total() || (outer.is_some() && plan_is_total(plan, outer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{
        any_sublink, binary, cmp, col, eq, exists_sublink, lit, or, qcol, scalar_sublink,
        PlanBuilder,
    };
    use crate::expr::CompareOp;
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
    fn collect_base_relations_in_order() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();
        let without = collect_base_relations(&q, false);
        assert_eq!(without.len(), 1);
        assert_eq!(without[0].table, "r");
        let with = collect_base_relations(&q, true);
        assert_eq!(with.len(), 2);
        assert_eq!(with[1].table, "s");
    }

    #[test]
    fn uncorrelated_sublink_has_no_free_columns() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), lit(3)))
            .build();
        assert!(free_columns(&sub).is_empty());
    }

    #[test]
    fn correlated_sublink_reports_free_columns() {
        let db = db();
        // σ_{c = b}(S): `b` comes from the enclosing query over R.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), col("b")))
            .build();
        assert!(!free_columns(&sub).is_empty());
        let free = free_columns(&sub);
        assert_eq!(free, vec![(None, "b".into())]);
    }

    #[test]
    fn free_correlated_columns_deduplicates_repeated_references() {
        let db = db();
        // σ_{c = b ∧ d = b}(S): `b` escapes twice but is one binding.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(crate::builder::and(
                eq(col("c"), col("b")),
                eq(col("d"), col("b")),
            ))
            .build();
        assert_eq!(free_columns(&sub).len(), 2);
        assert_eq!(free_correlated_columns(&sub), vec![(None, "b".into())]);
    }

    #[test]
    fn free_correlated_columns_of_nested_sublinks_escape_outwards() {
        let db = db();
        // σ_{EXISTS(σ_{c = r.a}(S))}(S as s2): the inner sublink's free `r.a`
        // is not bound by the middle scan either, so it escapes to the top.
        let inner = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "a")))
            .build();
        let middle = PlanBuilder::scan_as(&db, "s", Some("s2"))
            .unwrap()
            .select(exists_sublink(inner))
            .build();
        assert_eq!(
            free_correlated_columns(&middle),
            vec![(Some("r".into()), "a".into())]
        );
    }

    #[test]
    fn correlation_through_nested_test_expr_is_detected() {
        let db = db();
        // σ_{r.a = ANY(Π_c(S))}(S as s2): the *only* outer reference is the
        // test expression of the nested ANY sublink — the sublink plan
        // itself is closed. Used as a sublink query, this plan is correlated
        // on `r.a` and must report it, or the executor would memoize it as
        // uncorrelated and reuse one outer tuple's result for all bindings.
        let inner = PlanBuilder::scan(&db, "s").unwrap().build();
        let middle = PlanBuilder::scan_as(&db, "s", Some("s2"))
            .unwrap()
            .select(any_sublink(qcol("r", "a"), CompareOp::Eq, inner))
            .build();
        assert!(!free_columns(&middle).is_empty());
        assert_eq!(
            free_correlated_columns(&middle),
            vec![(Some("r".into()), "a".into())]
        );

        // The same reference resolves once the plan is embedded under a
        // query over R, so the whole query is closed.
        let sub = PlanBuilder::scan_as(&db, "s", Some("s3"))
            .unwrap()
            .select(any_sublink(
                qcol("r", "a"),
                CompareOp::Eq,
                PlanBuilder::scan(&db, "s").unwrap().build(),
            ))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();
        assert!(free_columns(&q).is_empty());
    }

    #[test]
    fn correlation_resolved_by_enclosing_query_is_not_free_at_the_top() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        // The whole query is closed: the sublink's free column `r.b` is bound
        // by the selection's input.
        assert!(free_columns(&q).is_empty());
    }

    #[test]
    fn free_params_descend_into_sublink_plans_and_test_exprs() {
        let db = db();
        // σ_{($2 = ANY(σ_{c = $1}(S)))}(R): $1 sits inside the sublink plan,
        // $2 in its test expression; both must be reported, sorted, once.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), crate::Expr::Param(0)))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(crate::builder::and(
                any_sublink(crate::Expr::Param(1), CompareOp::Eq, sub),
                eq(crate::Expr::Param(1), crate::Expr::Param(1)),
            ))
            .build();
        assert_eq!(free_params(&q), vec![0, 1]);
        assert_eq!(param_count(&q), 2);
        let plain = PlanBuilder::scan(&db, "r").unwrap().build();
        assert_eq!(free_params(&plain), Vec::<usize>::new());
        assert_eq!(param_count(&plain), 0);
    }

    #[test]
    fn params_are_not_free_columns() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), crate::Expr::Param(0)))
            .build();
        // A parameter is not a correlated column reference: the sublink is
        // uncorrelated (InitPlan-shaped) even though it is parameterized.
        assert!(free_columns(&sub).is_empty());
        assert_eq!(free_params(&sub), vec![0]);
    }

    #[test]
    fn sublinks_in_test_expressions_are_walked_in_order() {
        let db = db();
        // σ_{(a + (σ_{c > r.a}(S)) = ANY (Π_d(S))) ∨ EXISTS(S)}(R): the scalar
        // sublink sits in the ANY sublink's test expression, which belongs
        // to the selection's scope.
        let scalar = scalar_sublink(
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(cmp(CompareOp::Gt, col("c"), qcol("r", "a")))
                .project_columns(&["c"])
                .build(),
        );
        let test = binary(BinaryOp::Add, col("a"), scalar.clone());
        let quantified = any_sublink(
            test,
            CompareOp::Eq,
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .project_columns(&["d"])
                .build(),
        );
        let exists = exists_sublink(PlanBuilder::scan(&db, "s").unwrap().build());
        let cond = or(quantified.clone(), exists.clone());
        // Pre-order: the ANY sublink, then the one in its test, then EXISTS.
        assert_eq!(cond.sublinks(), vec![&quantified, &scalar, &exists]);
        assert_eq!(cond.column_refs(), vec![(None, "a".into())]);
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(cond.clone())
            .build();
        assert_eq!(count_sublinks(&q), 3);
        assert!(free_columns(&q).is_empty());
        // Over S the nested sublink's `r.a` escapes, through the test.
        let over_s = PlanBuilder::scan_as(&db, "s", Some("s2"))
            .unwrap()
            .select(cond.clone())
            .build();
        assert_eq!(
            free_correlated_columns(&over_s),
            vec![(None, "a".into()), (Some("r".into()), "a".into())]
        );
        // The rewriter reaches the nested sublink first (post-order).
        let mut seen = Vec::new();
        let replaced = cond.rewrite(&mut |e| {
            matches!(e, Expr::Sublink { .. }).then(|| {
                seen.push(e.clone());
                lit(seen.len() as i64)
            })
        });
        assert_eq!(seen[0], scalar);
        assert_eq!(seen[2], exists);
        assert_eq!(
            count_sublinks(
                &PlanBuilder::scan(&db, "r")
                    .unwrap()
                    .select(replaced.unwrap())
                    .build()
            ),
            0
        );
    }
}
