//! The plan operators of the extended relational algebra (Figure 1).
//!
//! # Shared, annotated nodes
//!
//! The children of every [`Plan`] operator, and the plans embedded in
//! sublink expressions, are [`PlanRef`]s: reference-counted nodes that
//! never change after construction. Cloning a plan copies the root
//! operator's own expressions and bumps one count per child. A rewrite that
//! changes one operator rebuilds only the spine above it and shares every
//! other subtree with its input, and a rule or pass that changes nothing
//! hands back the very `PlanRef` it was given, so "did it change" is
//! [`PlanRef::ptr_eq`].
//!
//! Each `PlanRef` caches what the analyses ask of its subtree, computed the
//! first time it is asked for: its output schema ([`PlanRef::schema`]), the
//! scope its own expressions resolve against ([`PlanRef::scope`]), its free
//! column references ([`PlanRef::free_columns`]) and whether it is total,
//! unable to raise an evaluation error ([`PlanRef::is_total`]). A
//! node never changes, so a cached value never goes stale. A bare `Plan` —
//! the root a caller holds — computes the same properties from its
//! children's caches, one operator deep.
//!
//! A rewrite that maps a plan leaves first runs through one walk,
//! [`PlanRef::rewrite_up`], which carries the [`Scopes`] into sublink plans.
//!
//! The caches are `OnceLock`s, not `OnceCell`s: a prepared statement is
//! shared by the worker threads of a serving pool, and two of them may ask
//! one node for its schema at once.

use crate::expr::{rewrite_all, AggregateExpr, Expr, SublinkKind};
use crate::visit::Scopes;
use crate::{AlgebraError, Result};
use perm_storage::{Attribute, DataType, Name, Schema, Tuple};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A column reference as the free-column analyses report it.
pub type ColumnRef = (Option<Name>, Name);

/// A shared, immutable plan node and the properties cached for it (see the
/// module docs). Dereferences to its [`Plan`]; equality is pointer identity
/// first, then structural.
#[derive(Clone)]
pub struct PlanRef(Arc<Node>);

struct Node {
    plan: Plan,
    schema: OnceLock<Arc<Schema>>,
    scope: OnceLock<Arc<Schema>>,
    free_columns: OnceLock<Vec<ColumnRef>>,
    total: OnceLock<bool>,
}

impl PlanRef {
    /// Shares `plan` as a node with empty caches.
    pub fn new(plan: Plan) -> PlanRef {
        PlanRef(Arc::new(Node {
            plan,
            schema: OnceLock::new(),
            scope: OnceLock::new(),
            free_columns: OnceLock::new(),
            total: OnceLock::new(),
        }))
    }

    /// `true` when `a` and `b` are the same node.
    pub fn ptr_eq(a: &PlanRef, b: &PlanRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// The node's operator, moved out when this is the only reference and
    /// copied (one operator deep) otherwise.
    pub fn into_plan(self) -> Plan {
        Arc::try_unwrap(self.0).map_or_else(|node| node.plan.clone(), |node| node.plan)
    }

    /// `self` when `changed` is `None`, else the changed operator as a new
    /// node: how a pass hands back what it left alone.
    pub fn or_changed(&self, changed: Option<Plan>) -> PlanRef {
        changed.map_or_else(|| self.clone(), PlanRef::new)
    }

    /// The output schema, computed once.
    pub fn schema(&self) -> Arc<Schema> {
        self.0.schema.get_or_init(|| self.0.plan.schema()).clone()
    }

    /// The scope of the operator's own expressions ([`Plan::scope`]),
    /// computed once.
    pub fn scope(&self) -> Arc<Schema> {
        match &self.0.plan {
            Plan::Join { kind, .. } if !kind.left_only_output() => self.schema(),
            _ => self.0.scope.get_or_init(|| self.0.plan.scope()).clone(),
        }
    }

    /// The free column references ([`crate::visit::free_columns`]), computed
    /// once.
    pub fn free_columns(&self) -> &[ColumnRef] {
        self.0
            .free_columns
            .get_or_init(|| crate::visit::free_columns(&self.0.plan))
    }

    /// [`crate::visit::plan_is_total`] outside any enclosing scope, computed
    /// once. A plan total here is total under every scope chain.
    pub fn is_total(&self) -> bool {
        *self
            .0
            .total
            .get_or_init(|| crate::visit::plan_is_total(&self.0.plan, None))
    }

    /// The one bottom-up rewrite: at each node, the children are rewritten,
    /// then (with `enter_bodies`) the plans of the node's sublinks, inside
    /// the node's scope in front of `outer`, then `rule` gets the node over
    /// them and the chain `outer` enclosing it and returns a replacement or
    /// `None`. What nothing changed is handed back as it was.
    pub fn rewrite_up<F>(
        &self,
        outer: Option<&Scopes<'_>>,
        enter_bodies: bool,
        rule: &mut F,
    ) -> PlanRef
    where
        F: FnMut(&PlanRef, Option<&Scopes<'_>>) -> Option<PlanRef>,
    {
        let mut node =
            self.or_changed(self.map_children(|child| child.rewrite_up(outer, enter_bodies, rule)));
        if enter_bodies {
            let mut scope = None;
            let bodies = node.map_sublinks(|body| {
                let scope = scope.get_or_insert_with(|| node.scope());
                body.rewrite_up(Some(&Scopes::new(scope, outer)), true, rule)
            });
            node = node.or_changed(bodies);
        }
        rule(&node, outer).unwrap_or(node)
    }
}

impl Deref for PlanRef {
    type Target = Plan;

    fn deref(&self) -> &Plan {
        &self.0.plan
    }
}

impl AsRef<Plan> for PlanRef {
    fn as_ref(&self) -> &Plan {
        &self.0.plan
    }
}

impl From<Plan> for PlanRef {
    fn from(plan: Plan) -> PlanRef {
        PlanRef::new(plan)
    }
}

impl PartialEq for PlanRef {
    fn eq(&self, other: &PlanRef) -> bool {
        PlanRef::ptr_eq(self, other) || self.0.plan == other.0.plan
    }
}

impl fmt::Debug for PlanRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.plan.fmt(f)
    }
}

/// One entry of a projection list: an expression and its output name
/// (`a → b` renaming in the paper is simply a column expression with a
/// different alias).
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectItem {
    /// Expression to evaluate.
    pub expr: Expr,
    /// Output attribute name.
    pub alias: Name,
    /// Optional relation qualifier of the output attribute. Pass-through
    /// projections (as produced by the provenance rewrite rules) preserve the
    /// qualifier of the source attribute so that qualified references from
    /// enclosing scopes — in particular correlated sublink references — keep
    /// resolving after the rewrite.
    pub qualifier: Option<Name>,
}

impl ProjectItem {
    /// Creates a projection item.
    pub fn new(expr: Expr, alias: impl Into<Name>) -> ProjectItem {
        ProjectItem {
            expr,
            alias: alias.into(),
            qualifier: None,
        }
    }

    /// Creates a projection item that keeps a column under its own name.
    pub fn column(name: impl Into<Name>) -> ProjectItem {
        let name = name.into();
        ProjectItem {
            expr: Expr::Column {
                qualifier: None,
                name,
            },
            alias: name,
            qualifier: None,
        }
    }

    /// Creates a pass-through item for an attribute, preserving its
    /// qualifier. The expression references the column through its qualifier
    /// (when present) so resolution stays unambiguous.
    pub fn passthrough(attr: &Attribute) -> ProjectItem {
        ProjectItem {
            expr: Expr::Column {
                qualifier: attr.qualifier,
                name: attr.name,
            },
            alias: attr.name,
            qualifier: attr.qualifier,
        }
    }

    /// Sets the output qualifier.
    pub fn with_qualifier(mut self, qualifier: impl Into<Name>) -> ProjectItem {
        self.qualifier = Some(qualifier.into());
        self
    }

    /// The output schema of a projection list: one attribute per item,
    /// under its alias and qualifier.
    pub fn schema_of(items: &[ProjectItem]) -> Schema {
        Schema::new(
            items
                .iter()
                .map(|item| Attribute {
                    name: item.alias,
                    qualifier: item.qualifier,
                    dtype: DataType::Any,
                })
                .collect(),
        )
    }
}

/// Join kinds supported by the engine. `LeftOuter` is required by the Left
/// and Move rewrite strategies (rules L1/L2 and T1/T2). `Semi` and `Anti`
/// are produced only by the optimizer's sublink decorrelation rule: both
/// output left-side tuples unchanged (the right side exists purely as a
/// match domain), so their output schema is the left input's schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    /// Emits each left tuple at most once, iff at least one right tuple
    /// satisfies the join condition.
    Semi,
    /// Emits each left tuple at most once, iff no right tuple satisfies the
    /// join condition.
    Anti,
}

impl JoinKind {
    /// `true` for join kinds whose output schema is the left input alone.
    pub fn left_only_output(self) -> bool {
        matches!(self, JoinKind::Semi | JoinKind::Anti)
    }
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => write!(f, "⋈"),
            JoinKind::LeftOuter => write!(f, "⟕"),
            JoinKind::Semi => write!(f, "⋉"),
            JoinKind::Anti => write!(f, "▷"),
        }
    }
}

/// Set operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    Union,
    Intersect,
    Except,
}

impl fmt::Display for SetOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOpKind::Union => write!(f, "∪"),
            SetOpKind::Intersect => write!(f, "∩"),
            SetOpKind::Except => write!(f, "−"),
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (`true`) or descending.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending sort on an expression.
    pub fn asc(expr: Expr) -> SortKey {
        SortKey {
            expr,
            ascending: true,
        }
    }

    /// Descending sort on an expression.
    pub fn desc(expr: Expr) -> SortKey {
        SortKey {
            expr,
            ascending: false,
        }
    }
}

/// A relational algebra plan.
///
/// Schema inference ([`Plan::schema`]) is context free because base-relation
/// scans carry their resolved schema; this keeps the provenance rewrite rules
/// simple plan-to-plan transformations.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Access to a base relation. `alias` qualifies the attribute names
    /// (`FROM lineitem l1`); `schema` is the resolved schema with that
    /// qualifier already applied.
    Scan {
        table: String,
        alias: Option<String>,
        schema: Schema,
    },
    /// A constant relation (used for `null(R)` padding and in tests).
    Values { schema: Schema, rows: Vec<Tuple> },
    /// Projection `Π_A(T)`; `distinct == true` is the duplicate-removing set
    /// version `Π_S`, otherwise the bag version `Π_B`.
    Project {
        input: PlanRef,
        items: Vec<ProjectItem>,
        distinct: bool,
    },
    /// Selection `σ_C(T)`.
    Select { input: PlanRef, predicate: Expr },
    /// Cross product `T1 × T2`.
    CrossProduct { left: PlanRef, right: PlanRef },
    /// Join `T1 ⋈_C T2` (inner or left outer).
    Join {
        left: PlanRef,
        right: PlanRef,
        kind: JoinKind,
        condition: Expr,
    },
    /// Aggregation `α_{G,agg}(T)`. The output schema is the grouping
    /// expressions followed by the aggregate results, one tuple per group
    /// (a single tuple over the empty group when `group_by` is empty).
    Aggregate {
        input: PlanRef,
        group_by: Vec<ProjectItem>,
        aggregates: Vec<AggregateExpr>,
    },
    /// Set operation; `all == true` is the bag version.
    SetOp {
        op: SetOpKind,
        all: bool,
        left: PlanRef,
        right: PlanRef,
    },
    /// Sorting (presentation only — does not affect provenance).
    Sort { input: PlanRef, keys: Vec<SortKey> },
    /// First-`n` truncation (presentation only).
    Limit { input: PlanRef, limit: usize },
}

impl Plan {
    /// The output schema of the plan, built from the children's cached
    /// schemas: one operator deep.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            Plan::Scan { schema, .. } | Plan::Values { schema, .. } => Arc::new(schema.clone()),
            Plan::Project { items, .. } => Arc::new(ProjectItem::schema_of(items)),
            Plan::Join { left, kind, .. } if kind.left_only_output() => left.schema(),
            Plan::CrossProduct { left, right } | Plan::Join { left, right, .. } => {
                Arc::new(left.schema().concat(&right.schema()))
            }
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let mut attrs: Vec<Attribute> = group_by
                    .iter()
                    .map(|g| Attribute {
                        name: g.alias,
                        qualifier: g.qualifier,
                        dtype: DataType::Any,
                    })
                    .collect();
                attrs.extend(
                    aggregates
                        .iter()
                        .map(|a| Attribute::new(a.alias, DataType::Any)),
                );
                Arc::new(Schema::new(attrs))
            }
            Plan::SetOp { left: input, .. }
            | Plan::Select { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.schema(),
        }
    }

    /// The scope this operator's own expressions resolve against: its
    /// children's output schemas, concatenated.
    pub fn scope(&self) -> Arc<Schema> {
        let mut inputs = self.inputs();
        match (inputs.next(), inputs.next()) {
            (Some(left), Some(right)) => Arc::new(left.schema().concat(&right.schema())),
            (Some(input), None) => input.schema(),
            _ => Arc::new(Schema::empty()),
        }
    }

    /// Validates structural invariants that the executor relies on: set
    /// operations over equal arity, `Values` rows matching their schema,
    /// non-empty projection lists, `ANY`/`ALL` sublinks over one column —
    /// in sublink plans too.
    pub fn validate(&self) -> Result<()> {
        for sublink in self.expressions().into_iter().flat_map(Expr::sublinks) {
            if let Expr::Sublink { kind, plan, .. } = sublink {
                let arity = plan.schema().arity();
                if matches!(kind, SublinkKind::Any | SublinkKind::All) && arity != 1 {
                    return Err(AlgebraError::Invalid(format!(
                        "ANY/ALL sublink must produce one column, got {arity}"
                    )));
                }
                plan.validate()?;
            }
        }
        let invalid = |msg: String| Err(AlgebraError::Invalid(msg));
        match self {
            Plan::Values { schema, rows } => {
                if let Some(row) = rows.iter().find(|r| r.arity() != schema.arity()) {
                    return invalid(format!(
                        "Values row arity {} does not match schema arity {}",
                        row.arity(),
                        schema.arity()
                    ));
                }
            }
            Plan::Project { items, .. } if items.is_empty() => {
                return invalid("empty projection list".into());
            }
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } if group_by.is_empty() && aggregates.is_empty() => {
                return invalid("aggregate without grouping or aggregate functions".into());
            }
            Plan::SetOp { left, right, .. } if left.schema().arity() != right.schema().arity() => {
                return invalid(format!(
                    "set operation over inputs of different arity ({} vs {})",
                    left.schema().arity(),
                    right.schema().arity()
                ));
            }
            _ => {}
        }
        self.inputs().try_for_each(|c| c.validate())
    }

    /// Direct child plans (not including sublink plans inside expressions).
    pub fn children(&self) -> Vec<&Plan> {
        self.inputs().map(|c| &**c).collect()
    }

    /// The direct children as shared nodes, left to right.
    pub fn inputs(&self) -> impl Iterator<Item = &PlanRef> {
        let (first, second) = match self {
            Plan::Scan { .. } | Plan::Values { .. } => (None, None),
            Plan::Project { input, .. }
            | Plan::Select { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => (Some(input), None),
            Plan::CrossProduct { left, right }
            | Plan::Join { left, right, .. }
            | Plan::SetOp { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// All expressions directly attached to this operator (predicates,
    /// projection items, join conditions, …) — again not descending into
    /// child operators.
    pub fn expressions(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.walk_expressions(&mut |e| out.push(e));
        out
    }

    /// Calls `f` on every expression [`Plan::expressions`] lists, in that
    /// order, without collecting them.
    pub fn walk_expressions<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Plan::Project { items, .. } => items.iter().for_each(|i| f(&i.expr)),
            Plan::Select { predicate: e, .. } | Plan::Join { condition: e, .. } => f(e),
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                group_by.iter().for_each(|g| f(&g.expr));
                aggregates.iter().filter_map(|a| a.arg.as_ref()).for_each(f);
            }
            Plan::Sort { keys, .. } => keys.iter().for_each(|k| f(&k.expr)),
            _ => {}
        }
    }

    /// This operator over its children mapped through `f` (left to right),
    /// its own expressions kept; `None` when `f` hands every child back
    /// unchanged — the same node — and nothing needs rebuilding.
    pub fn map_children(&self, mut f: impl FnMut(&PlanRef) -> PlanRef) -> Option<Plan> {
        let mut rebuilt: Option<Plan> = None;
        for (i, child) in self.inputs().enumerate() {
            let mapped = f(child);
            if !PlanRef::ptr_eq(&mapped, child) {
                let plan = rebuilt.get_or_insert_with(|| self.clone());
                match (plan, i) {
                    (
                        Plan::Project { input: c, .. }
                        | Plan::Select { input: c, .. }
                        | Plan::Sort { input: c, .. }
                        | Plan::Limit { input: c, .. }
                        | Plan::Aggregate { input: c, .. }
                        | Plan::CrossProduct { left: c, .. }
                        | Plan::Join { left: c, .. }
                        | Plan::SetOp { left: c, .. },
                        0,
                    )
                    | (
                        Plan::CrossProduct { right: c, .. }
                        | Plan::Join { right: c, .. }
                        | Plan::SetOp { right: c, .. },
                        _,
                    ) => *c = mapped,
                    _ => unreachable!("an operator has at most two children"),
                }
            }
        }
        rebuilt
    }

    /// This operator with every expression directly attached to it (the
    /// ones [`Plan::expressions`] lists, in that order) passed to `f`, which
    /// returns its replacement or `None` to keep it; children are kept.
    /// `None` when `f` keeps every expression: the expression counterpart
    /// of [`Plan::map_children`].
    pub fn rewrite_expressions(&self, mut f: impl FnMut(&Expr) -> Option<Expr>) -> Option<Plan> {
        let mut item = |i: &ProjectItem| {
            Some(ProjectItem {
                expr: f(&i.expr)?,
                alias: i.alias,
                qualifier: i.qualifier,
            })
        };
        match self {
            Plan::Project {
                input,
                items,
                distinct,
            } => rewrite_all(items, item).map(|items| Plan::Project {
                input: input.clone(),
                items,
                distinct: *distinct,
            }),
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                let new_groups = rewrite_all(group_by, &mut item);
                let new_aggs = rewrite_all(aggregates, |a| {
                    Some(AggregateExpr {
                        func: a.func,
                        arg: Some(f(a.arg.as_ref()?)?),
                        distinct: a.distinct,
                        alias: a.alias,
                    })
                });
                (new_groups.is_some() || new_aggs.is_some()).then(|| Plan::Aggregate {
                    input: input.clone(),
                    group_by: new_groups.unwrap_or_else(|| group_by.clone()),
                    aggregates: new_aggs.unwrap_or_else(|| aggregates.clone()),
                })
            }
            Plan::Select { input, predicate } => f(predicate).map(|predicate| Plan::Select {
                input: input.clone(),
                predicate,
            }),
            Plan::Join {
                left,
                right,
                kind,
                condition,
            } => f(condition).map(|condition| Plan::Join {
                left: left.clone(),
                right: right.clone(),
                kind: *kind,
                condition,
            }),
            Plan::Sort { input, keys } => rewrite_all(keys, |k| {
                Some(SortKey {
                    expr: f(&k.expr)?,
                    ascending: k.ascending,
                })
            })
            .map(|keys| Plan::Sort {
                input: input.clone(),
                keys,
            }),
            Plan::Scan { .. }
            | Plan::Values { .. }
            | Plan::CrossProduct { .. }
            | Plan::SetOp { .. }
            | Plan::Limit { .. } => None,
        }
    }

    /// This operator with the plan of every sublink in its own expressions
    /// mapped through `f` — the sublinks [`Expr::rewrite`] reaches: those
    /// nested in test expressions included, those inside sublink plans not
    /// (they are `f`'s to reach). `None` when `f` hands every plan back
    /// unchanged.
    pub fn map_sublinks(&self, mut f: impl FnMut(&PlanRef) -> PlanRef) -> Option<Plan> {
        // A walk that finds none is cheaper than a rewrite that rebuilds none.
        if !self.has_direct_sublink() {
            return None;
        }
        self.rewrite_expressions(|e| {
            e.rewrite(&mut |e| match e {
                Expr::Sublink {
                    kind,
                    test_expr,
                    op,
                    plan,
                } => {
                    let mapped = f(plan);
                    (!PlanRef::ptr_eq(&mapped, plan)).then(|| Expr::Sublink {
                        kind: *kind,
                        test_expr: test_expr.clone(),
                        op: *op,
                        plan: mapped,
                    })
                }
                _ => None,
            })
        })
    }

    /// `true` when this operator (not its children) carries at least one
    /// sublink expression.
    pub fn has_direct_sublink(&self) -> bool {
        let mut found = false;
        self.walk_expressions(&mut |e| found |= e.has_sublink());
        found
    }

    /// `true` when the plan tree (including expressions of all operators, but
    /// not the interiors of sublink plans) contains a sublink anywhere.
    pub fn has_sublink_anywhere(&self) -> bool {
        if self.has_direct_sublink() {
            return true;
        }
        self.inputs().any(|c| c.has_sublink_anywhere())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, lit, PlanBuilder};
    use crate::expr::{BinaryOp, CompareOp};

    fn scan_r() -> Plan {
        Plan::Scan {
            table: "r".into(),
            alias: None,
            schema: Schema::from_names(&["a", "b"]).with_qualifier("r"),
        }
    }

    #[test]
    fn schema_of_project_uses_aliases() {
        let p = PlanBuilder::from_plan(scan_r())
            .project(vec![
                ProjectItem::new(col("a"), "x"),
                ProjectItem::new(lit(1), "one"),
            ])
            .build();
        assert_eq!(p.schema().names(), ["x", "one"].map(Name::from));
    }

    #[test]
    fn schema_of_join_concatenates() {
        let s = Plan::Scan {
            table: "s".into(),
            alias: None,
            schema: Schema::from_names(&["c"]).with_qualifier("s"),
        };
        let j = Plan::Join {
            left: scan_r().into(),
            right: s.into(),
            kind: JoinKind::Inner,
            condition: Expr::Binary {
                op: BinaryOp::Cmp(CompareOp::Eq),
                left: Box::new(col("a")),
                right: Box::new(col("c")),
            },
        };
        assert_eq!(j.schema().names(), ["a", "b", "c"].map(Name::from));
    }

    #[test]
    fn schema_of_aggregate_lists_groups_then_aggs() {
        let p = Plan::Aggregate {
            input: scan_r().into(),
            group_by: vec![ProjectItem::column("a")],
            aggregates: vec![AggregateExpr::new(
                crate::expr::AggFunc::Sum,
                col("b"),
                "sum_b",
            )],
        };
        assert_eq!(p.schema().names(), ["a", "sum_b"].map(Name::from));
    }

    #[test]
    fn validate_rejects_mismatched_setop() {
        let s = Plan::Scan {
            table: "s".into(),
            alias: None,
            schema: Schema::from_names(&["c"]),
        };
        let bad = Plan::SetOp {
            op: SetOpKind::Union,
            all: true,
            left: scan_r().into(),
            right: s.into(),
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_values_rows() {
        let bad = Plan::Values {
            schema: Schema::from_names(&["a", "b"]),
            rows: vec![perm_storage::Tuple::new(vec![perm_storage::Value::Int(1)])],
        };
        assert!(bad.validate().is_err());
        let good = Plan::Values {
            schema: Schema::from_names(&["a"]),
            rows: vec![perm_storage::Tuple::new(vec![perm_storage::Value::Int(1)])],
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn sublink_detection() {
        let sub = Expr::Sublink {
            kind: crate::expr::SublinkKind::Exists,
            test_expr: None,
            op: None,
            plan: scan_r().into(),
        };
        let p = Plan::Select {
            input: scan_r().into(),
            predicate: sub,
        };
        assert!(p.has_direct_sublink());
        assert!(p.has_sublink_anywhere());
        let wrapped = Plan::Limit {
            input: p.into(),
            limit: 10,
        };
        assert!(!wrapped.has_direct_sublink());
        assert!(wrapped.has_sublink_anywhere());
    }
}
