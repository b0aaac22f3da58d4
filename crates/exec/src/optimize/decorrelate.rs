//! Sublink decorrelation: the selection-level rules of the optimizer
//! (conjunct implication, the disjunction split, hoisting correlation out
//! of a sublink body, grouping an aggregated body by its correlation key).
//! The bag / error-set argument of every rule is in the parent module's
//! documentation.

use super::{
    expr_is_total, fold_expr, plan_is_total, resolves_all, substitute_through, OptimizerReport,
};
use perm_algebra::builder::{cmp, conjunction, not};
use perm_algebra::expr::{BinaryOp, CompareOp, UnaryOp};
use perm_algebra::optimize::split_conjuncts;
use perm_algebra::visit::{free_columns, free_expr_columns};
use perm_algebra::{
    AggFunc, AggregateExpr, Expr, JoinKind, Plan, PlanRef, ProjectItem, Scopes, SetOpKind,
    SublinkKind,
};
use perm_storage::{Name, Schema, Value};
use std::sync::Arc;

/// Most disjunction splits nested inside one selection (each doubles the
/// branches, and every branch re-reads the selection's input).
const MAX_SPLITS: usize = 3;

/// Decorrelates a selection's sublinks: the rule of a bottom-up pass over
/// the top-scope operators. Sublink plans are not entered: a sublink nested
/// inside another sublink's plan re-executes with every enclosing binding,
/// and there the memo amortizes its body across bindings while a join would
/// rebuild per run — decorrelation can *cost* operators in that position.
pub(super) fn decorrelate(
    node: &Plan,
    rep: &mut OptimizerReport,
    fresh: &mut usize,
) -> Option<PlanRef> {
    match node {
        Plan::Select { input, predicate } if predicate.has_sublink() => {
            decorrelate_select(input, predicate, rep, fresh)
        }
        _ => None,
    }
}

/// One conjunct of a selection under decorrelation.
#[derive(Clone)]
struct Conjunct {
    expr: Expr,
    /// Set on conjuncts the new rules produced (a simplified `Csub⁺`, the
    /// pieces of a split disjunction): the attempt is abandoned unless
    /// every correlated sublink in them ends up as a join.
    required: bool,
}

/// Decorrelates the sublink conjuncts of `σ_predicate(input)`. The
/// implication and split rules run as one all-or-nothing attempt; when it
/// is abandoned — or has nothing to work on — the top-level conjuncts
/// decorrelate one by one and the rest of the selection keeps its shape.
/// `None` when the selection is left as it is.
fn decorrelate_select(
    input: &PlanRef,
    predicate: &Expr,
    rep: &mut OptimizerReport,
    fresh: &mut usize,
) -> Option<PlanRef> {
    let snapshot = (*rep, *fresh);
    let attempt = assume_earlier_conjuncts(split_conjuncts(predicate), input, rep);
    let tried = attempt
        .iter()
        .any(|c| c.required || verdict_disjunction(&c.expr).is_some());
    let mut rest = if tried {
        let plan = decorrelate_conjuncts(input.clone(), attempt, MAX_SPLITS, rep, fresh);
        if plan.is_some() {
            return plan;
        }
        (*rep, *fresh) = snapshot;
        split_conjuncts(predicate)
            .into_iter()
            .map(|expr| Conjunct {
                expr: expr.clone(),
                required: false,
            })
            .collect()
    } else {
        // Nothing was assumed: these are the original conjuncts.
        attempt
    };
    let before = rest.len();
    let input = decorrelate_top_level(input.clone(), &mut rest, rep, fresh);
    // Untouched: keep the predicate's own association.
    (rest.len() != before).then(|| wrap_select(input, rest))
}

fn wrap_select(input: PlanRef, conjuncts: Vec<Conjunct>) -> PlanRef {
    if conjuncts.is_empty() {
        return input;
    }
    PlanRef::new(Plan::Select {
        input,
        predicate: conjunction(conjuncts.into_iter().map(|c| c.expr)),
    })
}

/// Turns top-level sublink conjuncts into semi/anti joins over `input`
/// until none qualifies, removing them from `conjuncts`.
fn decorrelate_top_level(
    mut input: PlanRef,
    conjuncts: &mut Vec<Conjunct>,
    rep: &mut OptimizerReport,
    fresh: &mut usize,
) -> PlanRef {
    while let Some((i, kind, built)) = find_decorrelatable(&input, conjuncts, rep, fresh) {
        input = PlanRef::new(Plan::Join {
            left: input,
            right: PlanRef::new(built.right),
            kind,
            condition: built.condition,
        });
        conjuncts.remove(i);
        rep.sublinks_decorrelated += 1;
    }
    input
}

/// The all-or-nothing attempt: top-level conjuncts first, then one
/// disjunction split whose branches recurse. `None` when a required
/// conjunct would keep a correlated sublink.
fn decorrelate_conjuncts(
    input: PlanRef,
    mut conjuncts: Vec<Conjunct>,
    splits_left: usize,
    rep: &mut OptimizerReport,
    fresh: &mut usize,
) -> Option<PlanRef> {
    let input = decorrelate_top_level(input, &mut conjuncts, rep, fresh);
    let split_at = conjuncts
        .iter()
        .position(|c| verdict_disjunction(&c.expr).is_some())
        .filter(|_| splits_left > 0);
    if let Some(i) = split_at {
        let snapshot = (*rep, *fresh);
        let (holds, fails) = split_branches(&conjuncts, i);
        let union = decorrelate_conjuncts(input.clone(), holds, splits_left - 1, rep, fresh)
            .and_then(|left| {
                let right =
                    decorrelate_conjuncts(input.clone(), fails, splits_left - 1, rep, fresh)?;
                Some(PlanRef::new(Plan::SetOp {
                    op: SetOpKind::Union,
                    all: true,
                    left,
                    right,
                }))
            });
        if let Some(union) = union {
            rep.disjunctions_split += 1;
            return Some(union);
        }
        (*rep, *fresh) = snapshot;
    }
    if conjuncts
        .iter()
        .any(|c| c.required && has_correlated_sublink(&c.expr))
    {
        return None;
    }
    Some(wrap_select(input, conjuncts))
}

/// `Some((A, B))` for a conjunct `A ∨ B` whose `A` is an `EXISTS` /
/// `NOT EXISTS` verdict — two-valued, so `¬A` is its exact complement.
fn verdict_disjunction(conjunct: &Expr) -> Option<(&Expr, &Expr)> {
    let Expr::Binary {
        op: BinaryOp::Or,
        left,
        right,
    } = conjunct
    else {
        return None;
    };
    classify_sublink(left)
        .is_some_and(|c| c.exists_like)
        .then_some((left, right))
}

/// `σ_{pre ∧ (A∨B) ∧ post}` as the conjunct lists of its two branches:
/// `pre ∧ A ∧ post` and `pre ∧ ¬A ∧ B ∧ post`.
fn split_branches(conjuncts: &[Conjunct], at: usize) -> (Vec<Conjunct>, Vec<Conjunct>) {
    let (a, b) = verdict_disjunction(&conjuncts[at].expr).expect("checked by the caller");
    let negated = match a {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => (**expr).clone(),
        other => not(other.clone()),
    };
    let required = |expr: Expr| Conjunct {
        expr,
        required: true,
    };
    let mut holds = conjuncts.to_vec();
    holds[at] = required(a.clone());
    let mut fails = conjuncts[..at].to_vec();
    fails.push(required(negated));
    fails.extend(split_conjuncts(b).into_iter().cloned().map(required));
    fails.extend_from_slice(&conjuncts[at + 1..]);
    (holds, fails)
}

/// `true` when `expr` holds a sublink (test expressions included) whose
/// plan references an enclosing scope.
fn has_correlated_sublink(expr: &Expr) -> bool {
    !expr.all(&mut |e| !matches!(e, Expr::Sublink { plan, .. } if !plan.free_columns().is_empty()))
}

// ---------------------------------------------------------------------------
// Rule: conjunct implication
// ---------------------------------------------------------------------------

/// What a conjunct being TRUE says about a copy of an expression elsewhere.
pub(super) struct Fact {
    /// The expression whose value is known …
    pattern: Expr,
    /// … and that value.
    value: bool,
    /// `true` when the conjunct is never `UNKNOWN`, so later conjuncts are
    /// evaluated on exactly the rows where the fact holds.
    two_valued: bool,
    /// Every column the pattern reads from enclosing scopes: a copy of the
    /// pattern means the same thing only where none of them is shadowed.
    refs: Vec<(Option<Name>, Name)>,
}

/// The expression a conjunct establishes, and as what: `NOT x` holds where
/// `x` is FALSE, anything else where it is TRUE itself.
fn established(conjunct: &Expr) -> (&Expr, bool) {
    match conjunct {
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => (expr.as_ref(), false),
        other => (other, true),
    }
}

/// The facts `conjunct` establishes on the rows where it is TRUE: the
/// conjunct itself (`NOT x`: `x` is FALSE), and with `x = ANY(T)` also
/// `EXISTS(T)`.
pub(super) fn facts_of(conjunct: &Expr) -> Vec<Fact> {
    let fact = |pattern: &Expr, value: bool, two_valued: bool| Fact {
        refs: free_expr_columns(pattern, &Schema::empty()),
        pattern: pattern.clone(),
        value,
        two_valued,
    };
    let (atom, value) = established(conjunct);
    match atom {
        Expr::Sublink {
            kind: SublinkKind::Exists,
            ..
        } => vec![fact(atom, value, true)],
        // `x op ANY (T)` is FALSE over an empty `T`.
        Expr::Sublink {
            kind: SublinkKind::Any,
            plan,
            ..
        } if value => vec![
            fact(atom, true, false),
            fact(
                &perm_algebra::builder::exists_sublink(plan.clone()),
                true,
                false,
            ),
        ],
        _ => vec![fact(atom, value, false)],
    }
}

/// Rewrites every conjunct under the assumption that the sublink conjuncts
/// before it hold: a row on which one of them is not TRUE is dropped
/// whatever the later conjuncts say, so inside them a copy of that sublink
/// reads as the constant it must be. Gen's `Csub⁺` repeats the sublink it
/// belongs to (`Jsub`, the empty-sublink test), and collapses to a plain
/// membership test this way.
fn assume_earlier_conjuncts(
    conjuncts: Vec<&Expr>,
    input: &PlanRef,
    rep: &mut OptimizerReport,
) -> Vec<Conjunct> {
    let schema = input.schema();
    let scope = Scopes::new(&schema, None);
    // What each conjunct establishes, read off the conjuncts as written.
    // Within one selection only a sublink's verdict is assumed.
    let facts: Vec<Vec<Fact>> = conjuncts
        .iter()
        .map(|c| match established(c).0 {
            Expr::Sublink { .. } => facts_of(c),
            _ => Vec::new(),
        })
        .collect();
    let mut out: Vec<Conjunct> = conjuncts
        .into_iter()
        .map(|expr| Conjunct {
            expr: expr.clone(),
            required: false,
        })
        .collect();
    for (i, facts) in facts.iter().enumerate() {
        for fact in facts {
            for later in &mut out[i + 1..] {
                if !later.expr.has_sublink() {
                    continue;
                }
                // A three-valued conjunct lets rows through on UNKNOWN,
                // where the simplified form may skip what the original
                // evaluated: only a total conjunct may be simplified then.
                if !fact.two_valued && !expr_is_total(&later.expr, &scope) {
                    continue;
                }
                // A copy replaced is a conjunct changed: the attempt must
                // then turn its correlated sublinks into joins.
                if let Some(expr) = assume_in_expr(&later.expr, fact, rep) {
                    later.expr = expr;
                    later.required = true;
                }
            }
        }
    }
    out
}

/// `expr` with the copies of `fact`'s pattern — in it and in the sublink
/// plans nested in it — replaced by the fact's value, and what that decides
/// folded; `None` when it holds no copy.
pub(super) fn assume_in_expr(expr: &Expr, fact: &Fact, rep: &mut OptimizerReport) -> Option<Expr> {
    let assumed = expr.rewrite(&mut |e| {
        if *e == fact.pattern {
            rep.sublinks_implied += 1;
            return Some(Expr::Literal(Value::Bool(fact.value)));
        }
        match e {
            Expr::Sublink {
                kind,
                test_expr,
                op,
                plan,
            } => {
                let assumed = assume_in_plan(plan, fact, rep);
                (!PlanRef::ptr_eq(&assumed, plan)).then(|| Expr::Sublink {
                    kind: *kind,
                    test_expr: test_expr.clone(),
                    op: *op,
                    plan: assumed,
                })
            }
            _ => None,
        }
    })?;
    let empty = Schema::empty();
    Some(fold_expr(&assumed, &Scopes::new(&empty, None), rep).unwrap_or(assumed))
}

/// `plan` with the copies of `fact`'s pattern replaced, or `plan` itself
/// when it holds none: bottom-up, each operator's expressions through
/// [`assume_in_expr`], which enters the sublink plans nested in them.
fn assume_in_plan(plan: &PlanRef, fact: &Fact, rep: &mut OptimizerReport) -> PlanRef {
    plan.rewrite_up(None, false, &mut |node, _| {
        // An operator whose own scope knows one of the pattern's outer
        // references shadows it: a copy in its expressions (or nested below
        // them) reads another column.
        let scope = node.has_direct_sublink().then(|| node.scope())?;
        let known = |&(q, n): &(Option<Name>, Name)| !matches!(scope.try_resolve(q, n), Ok(None));
        if fact.refs.iter().any(known) {
            return None;
        }
        node.rewrite_expressions(|e| assume_in_expr(e, fact, rep))
            .map(PlanRef::new)
    })
}

// ---------------------------------------------------------------------------
// Rule: sublink conjunct → semi/anti join
// ---------------------------------------------------------------------------

/// The join kind and pieces of one decorrelatable sublink conjunct.
struct Candidate<'a> {
    kind: JoinKind,
    /// `ANY` test expression (`None` for `EXISTS` variants).
    test: Option<&'a Expr>,
    sub: &'a PlanRef,
    /// `true` for the `EXISTS` variants, whose verdict is never `UNKNOWN`.
    exists_like: bool,
}

fn classify_sublink(conjunct: &Expr) -> Option<Candidate<'_>> {
    match conjunct {
        Expr::Sublink {
            kind: SublinkKind::Exists,
            plan,
            ..
        } => Some(Candidate {
            kind: JoinKind::Semi,
            test: None,
            sub: plan,
            exists_like: true,
        }),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => match expr.as_ref() {
            Expr::Sublink {
                kind: SublinkKind::Exists,
                plan,
                ..
            } => Some(Candidate {
                kind: JoinKind::Anti,
                test: None,
                sub: plan,
                exists_like: true,
            }),
            _ => None,
        },
        // `IN` lowers to `= ANY` in the binder, so this covers both. The
        // negated forms (`NOT IN`, `<> ALL`) are NOT safe: a NULL element
        // makes the reference verdict UNKNOWN (row dropped) while an anti
        // join would keep the row.
        Expr::Sublink {
            kind: SublinkKind::Any,
            test_expr: Some(test),
            op: Some(CompareOp::Eq),
            plan,
        } => Some(Candidate {
            kind: JoinKind::Semi,
            test: Some(test),
            sub: plan,
            exists_like: false,
        }),
        _ => None,
    }
}

/// The first conjunct that can become a join over `input`, with the join's
/// kind, right side and condition.
fn find_decorrelatable(
    input: &PlanRef,
    conjuncts: &[Conjunct],
    rep: &mut OptimizerReport,
    fresh: &mut usize,
) -> Option<(usize, JoinKind, Decorrelated)> {
    if !conjuncts
        .iter()
        .any(|c| classify_sublink(&c.expr).is_some())
    {
        return None;
    }
    let outer_schema = input.schema();
    let pred_chain = Scopes::new(&outer_schema, None);
    for (i, conjunct) in conjuncts.iter().enumerate() {
        let Some(cand) = classify_sublink(&conjunct.expr) else {
            continue;
        };
        // Error-parity gate 1: the conjuncts that move to the selection
        // above the join are evaluated on (at most) the join's survivors
        // instead of their original rows, so they must be total — except
        // when a leading EXISTS gate makes the survivor set exactly the
        // reference evaluation set (an EXISTS verdict is never UNKNOWN, so
        // `AND` gates its successors precisely like the semi/anti join).
        let exists_first = cand.exists_like && i == 0;
        if !exists_first {
            let others_total = conjuncts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .all(|(_, c)| expr_is_total(&c.expr, &pred_chain));
            if !others_total {
                continue;
            }
        }
        // ANY test expressions are re-evaluated as a join input; they must
        // be total and resolve entirely in the immediate outer scope.
        if let Some(test) = cand.test {
            if !expr_is_total(test, &pred_chain) {
                continue;
            }
        }
        let snapshot = (*rep, *fresh);
        let built = build_decorrelated(
            &cand,
            &mut Lifting {
                outer: pred_chain,
                driver: input,
                rep,
                fresh,
            },
            i == 0,
        );
        match built {
            Some(built) => return Some((i, cand.kind, built)),
            None => (*rep, *fresh) = snapshot,
        }
    }
    None
}

struct Decorrelated {
    right: Plan,
    condition: Expr,
}

/// What lifting a sublink body needs to know about the query around it.
struct Lifting<'a> {
    /// The selection's input's scope — the sublink's immediate outer scope,
    /// the only one a decorrelated sublink may reference.
    outer: Scopes<'a>,
    /// The selection's input: where the distinct bindings that drive a
    /// grouped aggregate come from.
    driver: &'a PlanRef,
    rep: &'a mut OptimizerReport,
    fresh: &'a mut usize,
}

/// One correlated conjunct hoisted out of the sublink body.
enum Hoisted {
    /// `outer ⟨op⟩ inner`, normalised with the outer side left; `inner` is
    /// an expression over the lifted plan's schema.
    Pair {
        outer: Expr,
        op: BinaryOp,
        inner: Expr,
    },
    /// A conjunct referencing the outer scope only — moves verbatim into
    /// the join condition (NOT into a selection above the join: for an anti
    /// join, a false outer-only conjunct must *keep* the outer row).
    OuterOnly(Expr),
}

/// A sublink body with its correlation lifted out: for every binding of
/// the outer scope, the body's rows are the rows of `plan` on which every
/// hoisted conjunct holds, seen through `outputs`.
struct Lifted {
    /// The body without any reference to the outer scope.
    plan: PlanRef,
    /// The body's own output columns as expressions over `plan`'s schema
    /// (projections on the way are composed, not executed); `None` when
    /// they are `plan`'s columns.
    outputs: Option<Outputs>,
    /// In evaluation order, innermost selection first.
    hoisted: Vec<Hoisted>,
}

/// Composed output items and the schema they make.
struct Outputs {
    items: Vec<ProjectItem>,
    schema: Arc<Schema>,
}

impl Outputs {
    fn new(items: Vec<ProjectItem>) -> Outputs {
        let schema = Arc::new(ProjectItem::schema_of(&items));
        Outputs { items, schema }
    }
}

impl Lifted {
    fn opaque(plan: &PlanRef) -> Lifted {
        Lifted {
            plan: plan.clone(),
            outputs: None,
            hoisted: Vec::new(),
        }
    }

    /// The schema expressions above the body resolve against.
    fn schema(&self) -> Arc<Schema> {
        match &self.outputs {
            Some(outputs) => outputs.schema.clone(),
            None => self.plan.schema(),
        }
    }

    /// Rewrites an expression over [`Lifted::schema`] into one over
    /// `plan`'s schema.
    fn to_plan_columns(&self, expr: &Expr) -> Option<Expr> {
        match &self.outputs {
            Some(outputs) => {
                substitute_through(expr, &outputs.schema, &outputs.items, &self.plan.schema())
            }
            None => Some(expr.clone()),
        }
    }

    /// Classifies one correlated conjunct (over [`Lifted::schema`] and the
    /// outer scope) for hoisting: a comparison with one side entirely in
    /// the outer scope and the other entirely in the body's, or a conjunct
    /// referencing the outer scope only.
    fn hoist(&mut self, c: &Expr, outer: &Schema) -> Option<()> {
        let local = self.schema();
        if let Side::Outer = side_of(c, outer, &local) {
            self.hoisted.push(Hoisted::OuterOnly(c.clone()));
            return Some(());
        }
        let Expr::Binary { op, left, right } = c else {
            return None;
        };
        if !matches!(op, BinaryOp::Cmp(_) | BinaryOp::NullSafeEq) {
            return None;
        }
        let (outer_side, op, inner_side) =
            match (side_of(left, outer, &local), side_of(right, outer, &local)) {
                (Side::Outer, Side::Inner) => (left, *op, right),
                (Side::Inner, Side::Outer) => {
                    let flipped = match op {
                        BinaryOp::Cmp(c) => BinaryOp::Cmp(c.flip()),
                        other => *other,
                    };
                    (right, flipped, left)
                }
                _ => return None,
            };
        self.hoisted.push(Hoisted::Pair {
            outer: (**outer_side).clone(),
            op,
            inner: self.to_plan_columns(inner_side)?,
        });
        Some(())
    }

    /// Executes the composed projection, so that the body can sit under a
    /// join: afterwards `plan`'s columns are the body's output columns
    /// followed by one column per hoisted inner side.
    fn materialise(mut self, fresh: &mut usize) -> Option<Lifted> {
        let plain = |e: &Expr| matches!(e, Expr::Column { .. });
        let inners_plain = self.hoisted.iter().all(|h| match h {
            Hoisted::Pair { inner, .. } => plain(inner),
            Hoisted::OuterOnly(_) => true,
        });
        if self.outputs.is_none() && inners_plain {
            return Some(self);
        }
        let mut items = match self.outputs.take() {
            Some(outputs) => outputs.items,
            None => passthrough_items(&self.plan.schema())?,
        };
        for h in &mut self.hoisted {
            if let Hoisted::Pair { inner, .. } = h {
                let name: Name = format!("__h{}", *fresh).into();
                *fresh += 1;
                items.push(ProjectItem::new(inner.clone(), name));
                *inner = Expr::Column {
                    qualifier: None,
                    name,
                };
            }
        }
        self.plan = PlanRef::new(Plan::Project {
            input: self.plan,
            items,
            distinct: false,
        });
        Some(self)
    }
}

/// `true` when every attribute's name resolves to exactly its own position.
pub(super) fn unambiguous(schema: &Schema) -> bool {
    schema.attributes().iter().enumerate().all(|(i, attr)| {
        matches!(
            schema.try_resolve(attr.qualifier, attr.name),
            Ok(Some(j)) if j == i
        )
    })
}

/// One pass-through item per attribute, or `None` when a name does not
/// resolve to exactly its own position (the projection would read another
/// column, or fail).
pub(super) fn passthrough_items(schema: &Schema) -> Option<Vec<ProjectItem>> {
    unambiguous(schema).then(|| {
        schema
            .attributes()
            .iter()
            .map(ProjectItem::passthrough)
            .collect()
    })
}

/// Which single scope an expression's references live in.
enum Side {
    Outer,
    Inner,
    Mixed,
}

/// Which scope `expr` reads, the body's own (`local`) or the enclosing
/// query's (`outer`). Not `perm_algebra::visit::side_of`, which asks about
/// two sibling scopes and counts a name both know as neither's: these are
/// nested, and the innermost that knows a name wins, as at run time.
fn side_of(expr: &Expr, outer: &Schema, local: &Schema) -> Side {
    if expr.has_sublink() {
        return Side::Mixed;
    }
    let mut any_outer = false;
    let mut any_inner = false;
    let resolved = expr.all(&mut |e| {
        let Expr::Column { qualifier, name } = e else {
            return true;
        };
        let (q, name) = (*qualifier, *name);
        match (local.try_resolve(q, name), outer.try_resolve(q, name)) {
            // Innermost scope wins at runtime, so a locally resolvable
            // reference is an inner reference.
            (Ok(Some(_)), _) => any_inner = true,
            (Ok(None), Ok(Some(_))) => any_outer = true,
            _ => return false,
        }
        true
    });
    if !resolved {
        return Side::Mixed;
    }
    match (any_outer, any_inner) {
        (true, false) => Side::Outer,
        (false, _) => Side::Inner,
        (true, true) => Side::Mixed,
    }
}

/// Lifts the correlation out of a sublink body: walks through selections,
/// projections (composed by substitution), cross products, inner and
/// left-outer joins and global aggregates, collecting `outer ⟨op⟩ inner`
/// conjuncts at any depth. `existence` is set while only the *existence*
/// of body rows matters (under `EXISTS` / `ANY`), so duplicate elimination
/// may be ignored. `None` when some correlated operator is out of reach —
/// the caller then keeps the memo path.
///
/// Every expression whose evaluation moves or disappears on the way must
/// be total: a lifted body is evaluated once over all bindings' rows, not
/// per binding over the rows the earlier conjuncts let through.
fn lift(plan: &PlanRef, cx: &mut Lifting<'_>, existence: bool) -> Option<Lifted> {
    if plan.free_columns().is_empty() {
        return Some(Lifted::opaque(plan));
    }
    match &**plan {
        Plan::Select { input, predicate } => {
            let mut body = lift(input, cx, existence)?;
            let local = body.schema();
            let mut residual = Vec::new();
            for c in split_conjuncts(predicate) {
                if *c == Expr::Literal(Value::Bool(true)) {
                    continue;
                }
                if !free_expr_columns(c, &local).is_empty() {
                    body.hoist(c, cx.outer.schema)?;
                    continue;
                }
                // Removing a hoisted conjunct changes which rows the
                // conjuncts after it are evaluated on (AND only
                // short-circuits on FALSE), so those must be total.
                let chain = Scopes::new(&local, Some(&cx.outer));
                if !body.hoisted.is_empty() && !expr_is_total(c, &chain) {
                    return None;
                }
                // A nested sublink reads the body's columns by name from
                // inside its own plan, where substitution does not reach.
                if c.has_sublink() && body.outputs.is_some() {
                    return None;
                }
                residual.push(body.to_plan_columns(c)?);
            }
            body.plan = with_residual(body.plan, residual);
            Some(body)
        }
        Plan::Project {
            input,
            items,
            distinct,
        } => {
            // `EXISTS` ignores the output and `ANY` reads column 0, so
            // `distinct` changes neither emptiness nor the existence of an
            // equal element; an aggregate counts duplicates.
            if *distinct && !existence {
                return None;
            }
            let mut body = lift(input, cx, existence)?;
            let local = body.schema();
            let mut outputs = Vec::with_capacity(items.len());
            for item in items {
                // The item's evaluation disappears (EXISTS) or moves to
                // the join's build side: it must be total over the body
                // (and free of sublinks, which substitution cannot enter).
                if item.expr.has_sublink() || !expr_is_total(&item.expr, &Scopes::new(&local, None))
                {
                    return None;
                }
                outputs.push(ProjectItem {
                    expr: body.to_plan_columns(&item.expr)?,
                    alias: item.alias,
                    qualifier: item.qualifier,
                });
            }
            body.outputs = Some(Outputs::new(outputs));
            Some(body)
        }
        Plan::CrossProduct { left, right } => lift_join(left, right, None, cx, existence),
        Plan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Inner | JoinKind::LeftOuter),
            condition,
        } => lift_join(left, right, Some((*kind, condition)), cx, existence),
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } if group_by.is_empty() => lift_global_aggregate(input, aggregates, cx),
        _ => None,
    }
}

/// Puts the body-local conjuncts of a peeled selection back over the
/// lifted plan, merging with a selection already on top of it: the
/// flattened list reads in evaluation order (inner selections first).
fn with_residual(plan: PlanRef, residual: Vec<Expr>) -> PlanRef {
    if residual.is_empty() {
        return plan;
    }
    PlanRef::new(match &*plan {
        Plan::Select { input, predicate } => Plan::Select {
            input: input.clone(),
            predicate: conjunction(
                split_conjuncts(predicate)
                    .into_iter()
                    .cloned()
                    .chain(residual),
            ),
        },
        _ => Plan::Select {
            input: plan,
            predicate: conjunction(residual),
        },
    })
}

/// Lifts a cross product, inner join or left outer join whose sides (or
/// condition) are correlated. Both sides are materialised; the hoisted
/// conjuncts of an inner join's sides and condition simply add up. A left
/// outer join pads per binding, so correlation on its right side can only
/// be lifted when the left side already pins the binding down: each right
/// pair `e ⟨op⟩ r` needs a left pair `e =ₙ l` and becomes the join
/// conjunct `l ⟨op⟩ r`.
fn lift_join(
    left: &PlanRef,
    right: &PlanRef,
    join: Option<(JoinKind, &Expr)>,
    cx: &mut Lifting<'_>,
    existence: bool,
) -> Option<Lifted> {
    let l = lift(left, cx, existence)?.materialise(cx.fresh)?;
    let r = lift(right, cx, existence)?.materialise(cx.fresh)?;
    let left_outer = matches!(join, Some((JoinKind::LeftOuter, _)));
    // A cross product until the condition is known.
    let mut joined = Lifted {
        plan: PlanRef::new(Plan::CrossProduct {
            left: l.plan,
            right: r.plan,
        }),
        outputs: None,
        hoisted: l.hoisted,
    };
    let mut condition = Vec::new();
    if let Some((_, on)) = join {
        let local = joined.schema();
        for c in split_conjuncts(on) {
            if *c == Expr::Literal(Value::Bool(true)) {
                continue;
            }
            if free_expr_columns(c, &local).is_empty() {
                let chain = Scopes::new(&local, Some(&cx.outer));
                let anything_hoisted = !joined.hoisted.is_empty() || !r.hoisted.is_empty();
                if c.has_sublink() || (anything_hoisted && !expr_is_total(c, &chain)) {
                    return None;
                }
                condition.push(c.clone());
            } else if left_outer {
                return None;
            } else {
                joined.hoist(c, cx.outer.schema)?;
            }
        }
    }
    for h in r.hoisted {
        if !left_outer {
            joined.hoisted.push(h);
            continue;
        }
        let Hoisted::Pair { outer, op, inner } = h else {
            return None;
        };
        let pinned = joined.hoisted.iter().find_map(|l| match l {
            Hoisted::Pair {
                outer: e,
                op: BinaryOp::NullSafeEq,
                inner: l_inner,
            } if *e == outer => Some(l_inner.clone()),
            _ => None,
        })?;
        condition.push(Expr::Binary {
            op,
            left: Box::new(pinned),
            right: Box::new(inner),
        });
    }
    // Both sides' columns now meet in one scope, hoisted inner sides
    // included: every reference must still name exactly one column.
    let local = joined.schema();
    let unambiguous = |e: &Expr| resolves_all(&local, &e.column_refs());
    let inners_resolve = joined.hoisted.iter().all(|h| match h {
        Hoisted::Pair { inner, .. } => unambiguous(inner),
        Hoisted::OuterOnly(_) => true,
    });
    if !inners_resolve || !condition.iter().all(unambiguous) {
        return None;
    }
    if join.is_some() || !condition.is_empty() {
        let Plan::CrossProduct { left, right } = joined.plan.into_plan() else {
            unreachable!("built as a cross product above");
        };
        joined.plan = PlanRef::new(Plan::Join {
            left,
            right,
            kind: join.map_or(JoinKind::Inner, |(kind, _)| kind),
            condition: conjunction(condition),
        });
    }
    Some(joined)
}

/// Lifts an equality correlation through a global aggregate (a scalar
/// sublink's body) by grouping on the correlation key:
///
/// ```text
/// γ_{aggs}(σ_{e = k}(T))   ⇒   γ_{d; aggs}(δ(Π_{e→d}(driver)) ⟕_{d = k} T)   with   e =ₙ d
/// ```
///
/// The left outer join from the distinct outer bindings keeps a binding
/// without matching rows as one all-NULL row, so its group still yields
/// the row a global aggregate yields over an empty input (`count` 0 — it
/// counts a marker column the padding leaves NULL — every other aggregate
/// NULL). The driver may hold bindings no outer row *reaching* the
/// sublink has (it is read below the selections and joins over the
/// cross-product factor that resolves `e`); their groups match nothing,
/// and the grouped plan must be total so that computing them is
/// unobservable.
fn lift_global_aggregate(
    input: &PlanRef,
    aggregates: &[AggregateExpr],
    cx: &mut Lifting<'_>,
) -> Option<Lifted> {
    let body = lift(input, cx, false)?;
    let local = body.schema();
    let n = *cx.fresh;
    *cx.fresh += 1;
    let (drv, grp): (Name, Name) = (format!("__drv{n}").into(), format!("__grp{n}").into());
    let column = |qualifier: Name, name: Name| Expr::Column {
        qualifier: Some(qualifier),
        name,
    };

    let mut driver_items = Vec::new();
    let mut grouped_items = Vec::new();
    let mut on = Vec::new();
    let mut hoisted = Vec::new();
    for (i, h) in body.hoisted.iter().enumerate() {
        // Only an equality selects whole groups.
        let Hoisted::Pair {
            outer,
            op: op @ (BinaryOp::Cmp(CompareOp::Eq) | BinaryOp::NullSafeEq),
            inner,
        } = h
        else {
            return None;
        };
        let (d, k): (Name, Name) = (format!("d{i}").into(), format!("k{i}").into());
        driver_items.push(ProjectItem::new(outer.clone(), d).with_qualifier(drv));
        grouped_items.push(ProjectItem::new(inner.clone(), k).with_qualifier(grp));
        on.push(Expr::Binary {
            op: *op,
            left: Box::new(column(drv, d)),
            right: Box::new(column(grp, k)),
        });
        hoisted.push(Hoisted::Pair {
            outer: outer.clone(),
            op: BinaryOp::NullSafeEq,
            inner: column(drv, d),
        });
    }
    if hoisted.is_empty() {
        return None;
    }
    let mut grouped_aggs = Vec::with_capacity(aggregates.len());
    for (j, agg) in aggregates.iter().enumerate() {
        let (func, arg) = match &agg.arg {
            Some(arg) if agg.func != AggFunc::CountStar => {
                if arg.has_sublink() || !free_expr_columns(arg, &local).is_empty() {
                    return None;
                }
                let a: Name = format!("a{j}").into();
                grouped_items
                    .push(ProjectItem::new(body.to_plan_columns(arg)?, a).with_qualifier(grp));
                (agg.func, column(grp, a))
            }
            // `count(*)` would count the padding row of an empty group.
            _ => (AggFunc::Count, column(grp, "m".into())),
        };
        grouped_aggs.push(AggregateExpr {
            func,
            arg: Some(arg),
            distinct: agg.distinct && agg.func != AggFunc::CountStar,
            alias: agg.alias,
        });
    }
    grouped_items.push(ProjectItem::new(Expr::Literal(Value::Int(1)), "m").with_qualifier(grp));

    let outer_refs: Vec<_> = driver_items
        .iter()
        .flat_map(|item| item.expr.column_refs())
        .collect();
    let driver = Plan::Project {
        input: driver_source(cx.driver, &outer_refs).clone(),
        items: driver_items.clone(),
        distinct: true,
    };
    let plan = Plan::Aggregate {
        input: PlanRef::new(Plan::Join {
            left: PlanRef::new(driver),
            right: PlanRef::new(Plan::Project {
                input: body.plan,
                items: grouped_items,
                distinct: false,
            }),
            kind: JoinKind::LeftOuter,
            condition: conjunction(on),
        }),
        group_by: driver_items
            .iter()
            .map(|d| ProjectItem {
                expr: column(drv, d.alias),
                alias: d.alias,
                qualifier: d.qualifier,
            })
            .collect(),
        aggregates: grouped_aggs,
    };
    if !plan_is_total(&plan, None) {
        return None;
    }
    cx.rep.aggregates_grouped += 1;
    Some(Lifted {
        plan: PlanRef::new(plan),
        outputs: Some(Outputs::new(
            aggregates
                .iter()
                .map(|a| ProjectItem::column(a.alias))
                .collect(),
        )),
        hoisted,
    })
}

/// The smallest factor of the cross products / inner joins at the top of
/// `plan` that resolves every one of `refs`: a superset of the bindings
/// `plan` itself would give, without reading the other factors.
fn driver_source<'p>(plan: &'p PlanRef, refs: &[(Option<Name>, Name)]) -> &'p PlanRef {
    let resolves = |p: &PlanRef| resolves_all(&p.schema(), refs);
    let mut current = plan;
    loop {
        let (Plan::CrossProduct { left, right }
        | Plan::Join {
            left,
            right,
            kind: JoinKind::Inner,
            ..
        }) = &**current
        else {
            return current;
        };
        current = match (resolves(left), resolves(right)) {
            (true, false) => left,
            (false, true) => right,
            _ => return current,
        };
    }
}

/// Builds the join's right side and condition for one eligible sublink, or
/// `None` when a safety precondition fails (the caller falls back to the
/// memo path).
fn build_decorrelated(
    cand: &Candidate<'_>,
    cx: &mut Lifting<'_>,
    is_first_conjunct: bool,
) -> Option<Decorrelated> {
    let outer_schema = cx.outer.schema;
    let corr = cand.sub.free_columns();
    // Correlation must target the immediate outer scope, and nothing
    // deeper: every escaping reference resolves (unambiguously) in the
    // outer schema.
    if !resolves_all(outer_schema, corr) {
        return None;
    }
    if corr.is_empty() {
        // An uncorrelated sublink already runs exactly once per query —
        // the InitPlan memo, which retention even shares across executions
        // of a prepared statement. Decorrelating it gains nothing and
        // rebuilds the join's hash table every execution.
        return None;
    }

    let body = lift(cand.sub, cx, true)?;
    if body.hoisted.is_empty() {
        // The correlation lives somewhere the rule cannot reach.
        return None;
    }
    let qual: Name = format!("__dcl{}", *cx.fresh).into();
    let key_ref = |name: Name| Expr::Column {
        qualifier: Some(qual),
        name,
    };
    let plan_schema = body.plan.schema();
    let mut cond_conjuncts: Vec<Expr> = Vec::new();
    let mut items: Vec<ProjectItem> = Vec::new();
    if let Some(test) = cand.test {
        // The reference fold compares the ANY test against column 0 of the
        // sublink output.
        let value = match &body.outputs {
            Some(outputs) => outputs.items.first()?.expr.clone(),
            None => {
                let first = plan_schema.attributes().first()?;
                if !matches!(
                    plan_schema.try_resolve(first.qualifier, first.name),
                    Ok(Some(0))
                ) {
                    return None;
                }
                Expr::Column {
                    qualifier: first.qualifier,
                    name: first.name,
                }
            }
        };
        items.push(ProjectItem::new(value, "v").with_qualifier(qual));
        cond_conjuncts.push(cmp(CompareOp::Eq, test.clone(), key_ref("v".into())));
    }
    // Every hoisted side must be total: outer sides are re-evaluated per
    // probe row, inner sides per build row, both outside their original
    // AND chain.
    let outer_chain = &cx.outer;
    let inner_chain = &Scopes::new(&plan_schema, None);
    for (idx, h) in body.hoisted.iter().enumerate() {
        match h {
            Hoisted::Pair { outer, op, inner } => {
                if !expr_is_total(outer, outer_chain) || !expr_is_total(inner, inner_chain) {
                    return None;
                }
                let key: Name = format!("k{idx}").into();
                items.push(ProjectItem::new(inner.clone(), key).with_qualifier(qual));
                cond_conjuncts.push(Expr::Binary {
                    op: *op,
                    left: Box::new(outer.clone()),
                    right: Box::new(key_ref(key)),
                });
            }
            Hoisted::OuterOnly(c) => {
                if !expr_is_total(c, outer_chain) {
                    return None;
                }
                cond_conjuncts.push(c.clone());
            }
        }
    }
    if items.is_empty() {
        // EXISTS with only outer-only correlation: keep the body's rows
        // flowing but project a constant key so the join's right side has
        // a well-defined, collision-free schema.
        items.push(ProjectItem::new(Expr::Literal(Value::Int(1)), "k0").with_qualifier(qual));
    }
    let right = Plan::Project {
        input: body.plan,
        items,
        distinct: false,
    };

    // Error-parity gate 3: the reference evaluates the sublink body only
    // for rows that reach the sublink conjunct. A leading conjunct is
    // reached by every input row (and the executor skips the build side on
    // an empty probe side), so any body is safe there; otherwise the body
    // must be total.
    if !is_first_conjunct && !plan_is_total(&right, None) {
        return None;
    }
    // Resolution safety: the transformed right side must be fully
    // self-contained, and no outer-side reference of the join condition may
    // (also) resolve against the right schema — that would make it
    // ambiguous in the join's concatenated condition scope.
    if !free_columns(&right).is_empty() {
        return None;
    }
    let right_schema = right.schema();
    for c in &cond_conjuncts {
        for (q, n) in c.column_refs() {
            let in_outer = matches!(outer_schema.try_resolve(q, n), Ok(Some(_)));
            let in_right = matches!(right_schema.try_resolve(q, n), Ok(Some(_)));
            if in_outer == in_right {
                return None;
            }
        }
    }
    *cx.fresh += 1;
    Some(Decorrelated {
        right,
        condition: conjunction(cond_conjuncts),
    })
}
