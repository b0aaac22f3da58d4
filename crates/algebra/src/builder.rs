//! Fluent construction helpers for expressions and plans.
//!
//! These helpers keep the rewrite rules in `perm-core`, the query templates
//! in `perm-tpch`/`perm-synthetic`, the tests and the examples readable: a
//! selection with an `ANY`-sublink is written
//!
//! ```
//! use perm_algebra::{col, lit, PlanBuilder, CompareOp};
//! use perm_storage::{Schema, Database, Relation};
//!
//! let mut db = Database::new();
//! db.create_table("r", Relation::empty(Schema::from_names(&["a", "b"]))).unwrap();
//! db.create_table("s", Relation::empty(Schema::from_names(&["c"]))).unwrap();
//!
//! let sub = PlanBuilder::scan(&db, "s").unwrap().build();
//! let q = PlanBuilder::scan(&db, "r").unwrap()
//!     .select(perm_algebra::builder::any_sublink(col("a"), CompareOp::Eq, sub))
//!     .build();
//! assert!(q.has_direct_sublink());
//! ```

use crate::expr::{
    AggFunc, AggregateExpr, BinaryOp, CompareOp, Expr, FuncName, SublinkKind, UnaryOp,
};
use crate::plan::{JoinKind, Plan, PlanRef, ProjectItem, SetOpKind, SortKey};
use crate::Result;
use perm_storage::{Database, Name, Schema, Value};

/// Unqualified column reference.
pub fn col(name: impl Into<Name>) -> Expr {
    Expr::Column {
        qualifier: None,
        name: name.into(),
    }
}

/// Qualified column reference `q.name`.
pub fn qcol(qualifier: impl Into<Name>, name: impl Into<Name>) -> Expr {
    Expr::Column {
        qualifier: Some(qualifier.into()),
        name: name.into(),
    }
}

/// Literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// NULL literal.
pub fn null() -> Expr {
    Expr::Literal(Value::Null)
}

/// Binary operation helper.
pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
    Expr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Comparison `left op right`.
pub fn cmp(op: CompareOp, left: Expr, right: Expr) -> Expr {
    binary(BinaryOp::Cmp(op), left, right)
}

/// Equality comparison.
pub fn eq(left: Expr, right: Expr) -> Expr {
    cmp(CompareOp::Eq, left, right)
}

/// Null-safe equality `=n`.
pub fn null_safe_eq(left: Expr, right: Expr) -> Expr {
    binary(BinaryOp::NullSafeEq, left, right)
}

/// Logical conjunction.
pub fn and(left: Expr, right: Expr) -> Expr {
    binary(BinaryOp::And, left, right)
}

/// Logical disjunction.
pub fn or(left: Expr, right: Expr) -> Expr {
    binary(BinaryOp::Or, left, right)
}

/// Logical negation.
pub fn not(expr: Expr) -> Expr {
    Expr::Unary {
        op: UnaryOp::Not,
        expr: Box::new(expr),
    }
}

/// `IS NULL`.
pub fn is_null(expr: Expr) -> Expr {
    Expr::Unary {
        op: UnaryOp::IsNull,
        expr: Box::new(expr),
    }
}

/// `IS NOT NULL`.
pub fn is_not_null(expr: Expr) -> Expr {
    Expr::Unary {
        op: UnaryOp::IsNotNull,
        expr: Box::new(expr),
    }
}

/// Conjunction of an arbitrary number of predicates; `TRUE` when empty.
pub fn conjunction(preds: impl IntoIterator<Item = Expr>) -> Expr {
    let mut iter = preds.into_iter();
    match iter.next() {
        None => lit(true),
        Some(first) => iter.fold(first, and),
    }
}

/// The top-level conjuncts of a predicate, borrowed, left to right: the
/// inverse of [`conjunction`].
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

/// `expr BETWEEN low AND high` (inclusive), expanded to two comparisons.
pub fn between(expr: Expr, low: Expr, high: Expr) -> Expr {
    and(
        cmp(CompareOp::Ge, expr.clone(), low),
        cmp(CompareOp::Le, expr, high),
    )
}

/// `expr IN (v1, v2, …)` over literal values, expanded to a disjunction of
/// equalities (the paper notes `IN` is expressible through `ANY`).
pub fn in_list(expr: Expr, values: impl IntoIterator<Item = Expr>) -> Expr {
    let preds: Vec<Expr> = values.into_iter().map(|v| eq(expr.clone(), v)).collect();
    if preds.is_empty() {
        return lit(false);
    }
    let mut iter = preds.into_iter();
    let first = iter.next().expect("non-empty");
    iter.fold(first, or)
}

/// `coalesce(…)` helper.
pub fn coalesce(args: Vec<Expr>) -> Expr {
    Expr::Func {
        name: FuncName::Coalesce,
        args,
    }
}

/// `test op ANY (plan)` sublink.
pub fn any_sublink(test: Expr, op: CompareOp, plan: impl Into<PlanRef>) -> Expr {
    Expr::Sublink {
        kind: SublinkKind::Any,
        test_expr: Some(Box::new(test)),
        op: Some(op),
        plan: plan.into(),
    }
}

/// `test op ALL (plan)` sublink.
pub fn all_sublink(test: Expr, op: CompareOp, plan: impl Into<PlanRef>) -> Expr {
    Expr::Sublink {
        kind: SublinkKind::All,
        test_expr: Some(Box::new(test)),
        op: Some(op),
        plan: plan.into(),
    }
}

/// `EXISTS (plan)` sublink.
pub fn exists_sublink(plan: impl Into<PlanRef>) -> Expr {
    Expr::Sublink {
        kind: SublinkKind::Exists,
        test_expr: None,
        op: None,
        plan: plan.into(),
    }
}

/// Scalar sublink `(plan)`.
pub fn scalar_sublink(plan: impl Into<PlanRef>) -> Expr {
    Expr::Sublink {
        kind: SublinkKind::Scalar,
        test_expr: None,
        op: None,
        plan: plan.into(),
    }
}

/// `test IN (plan)` — sugar for `test = ANY (plan)`.
pub fn in_sublink(test: Expr, plan: Plan) -> Expr {
    any_sublink(test, CompareOp::Eq, plan)
}

/// `test NOT IN (plan)` — sugar for `NOT (test = ANY (plan))`.
pub fn not_in_sublink(test: Expr, plan: Plan) -> Expr {
    not(any_sublink(test, CompareOp::Eq, plan))
}

// Aggregate helpers -------------------------------------------------------

/// Generic aggregate.
pub fn agg(func: AggFunc, arg: Expr, alias: &str) -> AggregateExpr {
    AggregateExpr::new(func, arg, alias)
}

/// `sum(arg) AS alias`.
pub fn sum(arg: Expr, alias: &str) -> AggregateExpr {
    agg(AggFunc::Sum, arg, alias)
}

/// `avg(arg) AS alias`.
pub fn avg(arg: Expr, alias: &str) -> AggregateExpr {
    agg(AggFunc::Avg, arg, alias)
}

/// `min(arg) AS alias`.
pub fn min(arg: Expr, alias: &str) -> AggregateExpr {
    agg(AggFunc::Min, arg, alias)
}

/// `max(arg) AS alias`.
pub fn max(arg: Expr, alias: &str) -> AggregateExpr {
    agg(AggFunc::Max, arg, alias)
}

/// `count(arg) AS alias`.
pub fn count(arg: Expr, alias: &str) -> AggregateExpr {
    agg(AggFunc::Count, arg, alias)
}

/// `count(*) AS alias`.
pub fn count_star(alias: &str) -> AggregateExpr {
    AggregateExpr::count_star(alias)
}

/// A fluent plan builder.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: Plan,
}

impl PlanBuilder {
    /// Starts from a base-relation scan, resolving the schema in `db`.
    pub fn scan(db: &Database, table: &str) -> Result<PlanBuilder> {
        Self::scan_as(db, table, None)
    }

    /// Starts from an aliased base-relation scan (`FROM table alias`).
    pub fn scan_as(db: &Database, table: &str, alias: Option<&str>) -> Result<PlanBuilder> {
        let schema = db.table_schema(table)?;
        let qualifier = alias.unwrap_or(table);
        Ok(PlanBuilder {
            plan: Plan::Scan {
                table: table.to_string(),
                alias: alias.map(|a| a.to_string()),
                schema: schema.with_qualifier(qualifier),
            },
        })
    }

    /// Starts from an existing plan.
    pub fn from_plan(plan: Plan) -> PlanBuilder {
        PlanBuilder { plan }
    }

    /// Starts from a constant relation.
    pub fn values(schema: Schema, rows: Vec<perm_storage::Tuple>) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Values { schema, rows },
        }
    }

    /// Adds a selection.
    pub fn select(self, predicate: Expr) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Select {
                input: PlanRef::new(self.plan),
                predicate,
            },
        }
    }

    /// Adds a bag projection.
    pub fn project(self, items: Vec<ProjectItem>) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Project {
                input: PlanRef::new(self.plan),
                items,
                distinct: false,
            },
        }
    }

    /// Adds a duplicate-removing projection.
    pub fn project_distinct(self, items: Vec<ProjectItem>) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Project {
                input: PlanRef::new(self.plan),
                items,
                distinct: true,
            },
        }
    }

    /// Projects columns by name, keeping their names.
    pub fn project_columns<S: AsRef<str>>(self, names: &[S]) -> PlanBuilder {
        let items = names
            .iter()
            .map(|n| ProjectItem::column(n.as_ref()))
            .collect();
        self.project(items)
    }

    /// Cross product with another plan.
    pub fn cross(self, other: Plan) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::CrossProduct {
                left: PlanRef::new(self.plan),
                right: PlanRef::new(other),
            },
        }
    }

    /// Inner join with another plan.
    pub fn join(self, other: Plan, condition: Expr) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Join {
                left: PlanRef::new(self.plan),
                right: PlanRef::new(other),
                kind: JoinKind::Inner,
                condition,
            },
        }
    }

    /// Left outer join with another plan.
    pub fn left_join(self, other: Plan, condition: Expr) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Join {
                left: PlanRef::new(self.plan),
                right: PlanRef::new(other),
                kind: JoinKind::LeftOuter,
                condition,
            },
        }
    }

    /// Semi join with another plan (left tuples with at least one match).
    pub fn semi_join(self, other: Plan, condition: Expr) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Join {
                left: PlanRef::new(self.plan),
                right: PlanRef::new(other),
                kind: JoinKind::Semi,
                condition,
            },
        }
    }

    /// Anti join with another plan (left tuples with no match).
    pub fn anti_join(self, other: Plan, condition: Expr) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Join {
                left: PlanRef::new(self.plan),
                right: PlanRef::new(other),
                kind: JoinKind::Anti,
                condition,
            },
        }
    }

    /// Aggregation.
    pub fn aggregate(
        self,
        group_by: Vec<ProjectItem>,
        aggregates: Vec<AggregateExpr>,
    ) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Aggregate {
                input: PlanRef::new(self.plan),
                group_by,
                aggregates,
            },
        }
    }

    /// Set operation with another plan.
    pub fn set_op(self, op: SetOpKind, all: bool, other: Plan) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::SetOp {
                op,
                all,
                left: PlanRef::new(self.plan),
                right: PlanRef::new(other),
            },
        }
    }

    /// Sorting.
    pub fn sort(self, keys: Vec<SortKey>) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Sort {
                input: PlanRef::new(self.plan),
                keys,
            },
        }
    }

    /// Limit.
    pub fn limit(self, limit: usize) -> PlanBuilder {
        PlanBuilder {
            plan: Plan::Limit {
                input: PlanRef::new(self.plan),
                limit,
            },
        }
    }

    /// Finishes and returns the plan.
    pub fn build(self) -> Plan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table("r", Relation::empty(Schema::from_names(&["a", "b"])))
            .unwrap();
        db.create_table("s", Relation::empty(Schema::from_names(&["c"])))
            .unwrap();
        db
    }

    #[test]
    fn scan_resolves_schema_and_alias() {
        let db = db();
        let p = PlanBuilder::scan_as(&db, "r", Some("r1")).unwrap().build();
        match &p {
            Plan::Scan { schema, alias, .. } => {
                assert_eq!(alias.as_deref(), Some("r1"));
                assert_eq!(schema.resolve(Some("r1".into()), "a".into()).unwrap(), 0);
            }
            _ => panic!("expected scan"),
        }
        assert!(PlanBuilder::scan(&db, "missing").is_err());
    }

    #[test]
    fn fluent_chain_builds_expected_shape() {
        let db = db();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .project_columns(&["a"])
            .build();
        assert_eq!(q.schema().names(), ["a"].map(Name::from));
        match q {
            Plan::Project { input, .. } => assert!(input.has_direct_sublink()),
            _ => panic!("expected project on top"),
        }
    }

    #[test]
    fn conjunction_and_in_list_expansion() {
        assert_eq!(conjunction(vec![]), lit(true));
        let c = conjunction(vec![eq(col("a"), lit(1)), eq(col("b"), lit(2))]);
        assert!(matches!(
            c,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
        let l = in_list(col("a"), vec![lit(1), lit(2), lit(3)]);
        assert!(matches!(
            l,
            Expr::Binary {
                op: BinaryOp::Or,
                ..
            }
        ));
        assert_eq!(in_list(col("a"), vec![]), lit(false));
    }

    #[test]
    fn between_expands_to_two_comparisons() {
        let b = between(col("a"), lit(1), lit(10));
        match b {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                assert!(matches!(
                    *left,
                    Expr::Binary {
                        op: BinaryOp::Cmp(CompareOp::Ge),
                        ..
                    }
                ));
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::Cmp(CompareOp::Le),
                        ..
                    }
                ));
            }
            _ => panic!("expected conjunction"),
        }
    }

    #[test]
    fn sublink_builders_set_kind() {
        let db = db();
        let p = || PlanBuilder::scan(&db, "s").unwrap().build();
        assert!(matches!(
            exists_sublink(p()),
            Expr::Sublink {
                kind: SublinkKind::Exists,
                ..
            }
        ));
        assert!(matches!(
            scalar_sublink(p()),
            Expr::Sublink {
                kind: SublinkKind::Scalar,
                ..
            }
        ));
        assert!(matches!(
            all_sublink(col("a"), CompareOp::Lt, p()),
            Expr::Sublink {
                kind: SublinkKind::All,
                op: Some(CompareOp::Lt),
                ..
            }
        ));
        assert!(matches!(
            not_in_sublink(col("a"), p()),
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
    }
}
