//! The plan operators of the extended relational algebra (Figure 1).

use crate::expr::{AggregateExpr, Expr, SublinkKind};
use crate::{AlgebraError, Result};
use perm_storage::{Attribute, DataType, Name, Schema, Tuple};
use std::fmt;

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
                name: name.clone(),
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
                qualifier: attr.qualifier.clone(),
                name: attr.name.clone(),
            },
            alias: attr.name.clone(),
            qualifier: attr.qualifier.clone(),
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
                    name: item.alias.clone(),
                    qualifier: item.qualifier.clone(),
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
        input: Box<Plan>,
        items: Vec<ProjectItem>,
        distinct: bool,
    },
    /// Selection `σ_C(T)`.
    Select { input: Box<Plan>, predicate: Expr },
    /// Cross product `T1 × T2`.
    CrossProduct { left: Box<Plan>, right: Box<Plan> },
    /// Join `T1 ⋈_C T2` (inner or left outer).
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: JoinKind,
        condition: Expr,
    },
    /// Aggregation `α_{G,agg}(T)`. The output schema is the grouping
    /// expressions followed by the aggregate results, one tuple per group
    /// (a single tuple over the empty group when `group_by` is empty).
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<ProjectItem>,
        aggregates: Vec<AggregateExpr>,
    },
    /// Set operation; `all == true` is the bag version.
    SetOp {
        op: SetOpKind,
        all: bool,
        left: Box<Plan>,
        right: Box<Plan>,
    },
    /// Sorting (presentation only — does not affect provenance).
    Sort {
        input: Box<Plan>,
        keys: Vec<SortKey>,
    },
    /// First-`n` truncation (presentation only).
    Limit { input: Box<Plan>, limit: usize },
}

impl Plan {
    /// The output schema of the plan.
    pub fn schema(&self) -> Schema {
        match self {
            Plan::Scan { schema, .. } | Plan::Values { schema, .. } => schema.clone(),
            Plan::Project { items, .. } => ProjectItem::schema_of(items),
            Plan::Select { input, .. } => input.schema(),
            Plan::CrossProduct { left, right } => left.schema().concat(&right.schema()),
            Plan::Join {
                left, right, kind, ..
            } => {
                if kind.left_only_output() {
                    left.schema()
                } else {
                    left.schema().concat(&right.schema())
                }
            }
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let mut attrs: Vec<Attribute> = group_by
                    .iter()
                    .map(|g| Attribute {
                        name: g.alias.clone(),
                        qualifier: g.qualifier.clone(),
                        dtype: DataType::Any,
                    })
                    .collect();
                attrs.extend(
                    aggregates
                        .iter()
                        .map(|a| Attribute::new(a.alias.clone(), DataType::Any)),
                );
                Schema::new(attrs)
            }
            Plan::SetOp { left, .. } => left.schema(),
            Plan::Sort { input, .. } | Plan::Limit { input, .. } => input.schema(),
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
        match self {
            Plan::Values { schema, rows } => {
                for row in rows {
                    if row.arity() != schema.arity() {
                        return Err(AlgebraError::Invalid(format!(
                            "Values row arity {} does not match schema arity {}",
                            row.arity(),
                            schema.arity()
                        )));
                    }
                }
                Ok(())
            }
            Plan::Project { input, items, .. } => {
                if items.is_empty() {
                    return Err(AlgebraError::Invalid("empty projection list".into()));
                }
                input.validate()
            }
            Plan::Select { input, .. } => input.validate(),
            Plan::CrossProduct { left, right } | Plan::Join { left, right, .. } => {
                left.validate()?;
                right.validate()
            }
            Plan::Aggregate {
                input,
                group_by,
                aggregates,
            } => {
                if group_by.is_empty() && aggregates.is_empty() {
                    return Err(AlgebraError::Invalid(
                        "aggregate without grouping or aggregate functions".into(),
                    ));
                }
                input.validate()
            }
            Plan::SetOp { left, right, .. } => {
                if left.schema().arity() != right.schema().arity() {
                    return Err(AlgebraError::Invalid(format!(
                        "set operation over inputs of different arity ({} vs {})",
                        left.schema().arity(),
                        right.schema().arity()
                    )));
                }
                left.validate()?;
                right.validate()
            }
            Plan::Sort { input, .. } | Plan::Limit { input, .. } => input.validate(),
            Plan::Scan { .. } => Ok(()),
        }
    }

    /// Direct child plans (not including sublink plans inside expressions).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } | Plan::Values { .. } => vec![],
            Plan::Project { input, .. }
            | Plan::Select { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => vec![input],
            Plan::CrossProduct { left, right }
            | Plan::Join { left, right, .. }
            | Plan::SetOp { left, right, .. } => vec![left, right],
        }
    }

    /// All expressions directly attached to this operator (predicates,
    /// projection items, join conditions, …) — again not descending into
    /// child operators.
    pub fn expressions(&self) -> Vec<&Expr> {
        match self {
            Plan::Project { items, .. } => items.iter().map(|i| &i.expr).collect(),
            Plan::Select { predicate, .. } => vec![predicate],
            Plan::Join { condition, .. } => vec![condition],
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                let mut out: Vec<&Expr> = group_by.iter().map(|g| &g.expr).collect();
                out.extend(aggregates.iter().filter_map(|a| a.arg.as_ref()));
                out
            }
            Plan::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
            _ => vec![],
        }
    }

    /// Rebuilds this operator over children mapped through `f` (left to
    /// right); its own expressions — and the sublink plans inside them — are
    /// kept as they are. Nothing is cloned: children move through `f`.
    pub fn map_children(mut self, mut f: impl FnMut(Plan) -> Plan) -> Plan {
        for child in self.children_mut() {
            let hole = Plan::Values {
                schema: Schema::empty(),
                rows: Vec::new(),
            };
            **child = f(std::mem::replace(&mut **child, hole));
        }
        self
    }

    /// Rebuilds this operator with every expression directly attached to it
    /// (the ones [`Plan::expressions`] lists) mapped through `f`; children
    /// are kept as they are.
    pub fn map_expressions(mut self, mut f: impl FnMut(Expr) -> Expr) -> Plan {
        let mut apply = |e: &mut Expr| {
            let taken = std::mem::replace(e, Expr::Literal(perm_storage::Value::Null));
            *e = f(taken);
        };
        match &mut self {
            Plan::Project { items, .. } => items.iter_mut().for_each(|i| apply(&mut i.expr)),
            Plan::Select { predicate, .. } => apply(predicate),
            Plan::Join { condition, .. } => apply(condition),
            Plan::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                group_by.iter_mut().for_each(|g| apply(&mut g.expr));
                aggregates
                    .iter_mut()
                    .filter_map(|a| a.arg.as_mut())
                    .for_each(apply);
            }
            Plan::Sort { keys, .. } => keys.iter_mut().for_each(|k| apply(&mut k.expr)),
            Plan::Scan { .. }
            | Plan::Values { .. }
            | Plan::CrossProduct { .. }
            | Plan::SetOp { .. }
            | Plan::Limit { .. } => {}
        }
        self
    }

    fn children_mut(&mut self) -> Vec<&mut Box<Plan>> {
        match self {
            Plan::Scan { .. } | Plan::Values { .. } => vec![],
            Plan::Project { input, .. }
            | Plan::Select { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => vec![input],
            Plan::CrossProduct { left, right }
            | Plan::Join { left, right, .. }
            | Plan::SetOp { left, right, .. } => vec![left, right],
        }
    }

    /// `true` when this operator (not its children) carries at least one
    /// sublink expression.
    pub fn has_direct_sublink(&self) -> bool {
        self.expressions().iter().any(|e| e.has_sublink())
    }

    /// `true` when the plan tree (including expressions of all operators, but
    /// not the interiors of sublink plans) contains a sublink anywhere.
    pub fn has_sublink_anywhere(&self) -> bool {
        if self.has_direct_sublink() {
            return true;
        }
        self.children().iter().any(|c| c.has_sublink_anywhere())
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
            left: Box::new(scan_r()),
            right: Box::new(s),
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
            input: Box::new(scan_r()),
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
            left: Box::new(scan_r()),
            right: Box::new(s),
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
            plan: Box::new(scan_r()),
        };
        let p = Plan::Select {
            input: Box::new(scan_r()),
            predicate: sub,
        };
        assert!(p.has_direct_sublink());
        assert!(p.has_sublink_anywhere());
        let wrapped = Plan::Limit {
            input: Box::new(p),
            limit: 10,
        };
        assert!(!wrapped.has_direct_sublink());
        assert!(wrapped.has_sublink_anywhere());
    }
}
