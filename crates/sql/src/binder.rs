//! The binder (analyzer): turns a parsed SQL query into a `perm-algebra`
//! plan against a catalog. Column references are *not* resolved to positions
//! here — the algebra resolves them by name at execution time, which is what
//! makes correlated sublinks work — but table names are resolved so that scan
//! nodes carry their schemas.
//!
//! [`bind`] ends with the one optimizer rule that runs before the provenance
//! rewrite, `perm_optimize::push_down_selections`: selection conjuncts move
//! into the FROM-clause joins, sublink conjuncts stay where the rewrite
//! rules look for them. Everything else the optimizer does runs on the
//! rewritten plan.

use crate::ast::{
    is_aggregate_name, JoinType, Quantifier, Query, SelectItem, SqlBinaryOp, SqlExpr, TableRef,
};
use crate::{Result, SqlError};
use perm_algebra::builder::{
    all_sublink, any_sublink, between, col, exists_sublink, in_list, lit, not, qcol,
    scalar_sublink, PlanBuilder,
};
use perm_algebra::{
    AggFunc, AggregateExpr, BinaryOp, CompareOp, Expr, FuncName, JoinKind, Plan, PlanRef,
    ProjectItem, SortKey,
};
use perm_storage::{Attribute, DataType, Database, Name, Schema, Tuple, Value};

/// A bound query: the algebra plan ready for execution or provenance
/// rewriting.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// The algebra plan.
    pub plan: Plan,
}

/// Binds a parsed query against a database.
pub fn bind(db: &Database, parsed: &crate::parser::ParsedQuery) -> Result<BoundQuery> {
    let plan = bind_query(db, &parsed.query)?;
    // Push selection conjuncts into the FROM-clause joins, as the PostgreSQL
    // planner underneath the original Perm system would. Sublink conjuncts
    // are kept in place so the provenance rewriter still sees them in
    // selections.
    let plan = perm_optimize::push_down_selections(plan);
    Ok(BoundQuery { plan })
}

/// Binds a (sub)query into a plan.
pub fn bind_query(db: &Database, query: &Query) -> Result<Plan> {
    // FROM clause: cross-join all items.
    let mut plan = match query.from.split_first() {
        None => Plan::Values {
            schema: Schema::empty(),
            rows: vec![Tuple::empty()],
        },
        Some((first, rest)) => {
            let mut plan = bind_table_ref(db, first)?;
            for item in rest {
                plan = Plan::CrossProduct {
                    left: PlanRef::new(plan),
                    right: PlanRef::new(bind_table_ref(db, item)?),
                };
            }
            plan
        }
    };

    // WHERE clause.
    if let Some(where_clause) = &query.where_clause {
        plan = Plan::Select {
            input: PlanRef::new(plan),
            predicate: bind_expr(db, where_clause)?,
        };
    }

    // Aggregation.
    let needs_aggregate = !query.group_by.is_empty()
        || query
            .select
            .iter()
            .any(|item| matches!(item, SelectItem::Expr { expr, .. } if expr.has_aggregate()))
        || query
            .having
            .as_ref()
            .map(|h| h.has_aggregate())
            .unwrap_or(false)
        || query.order_by.iter().any(|(e, _)| e.has_aggregate());

    let mut select_exprs: Vec<(SqlExpr, Option<String>)> = Vec::new();
    for item in &query.select {
        match item {
            SelectItem::Wildcard => select_exprs.push((SqlExpr::Wildcard, None)),
            SelectItem::Expr { expr, alias } => select_exprs.push((expr.clone(), alias.clone())),
        }
    }
    let mut having = query.having.clone();
    let mut order_by = query.order_by.clone();

    if needs_aggregate {
        let mut collector = AggregateCollector::default();
        for (expr, _) in &mut select_exprs {
            if !matches!(expr, SqlExpr::Wildcard) {
                *expr = collector.extract(expr);
            }
        }
        if let Some(h) = &mut having {
            *h = collector.extract(h);
        }
        for (expr, _) in &mut order_by {
            *expr = collector.extract(expr);
        }

        let mut group_items = Vec::new();
        for (i, group_expr) in query.group_by.iter().enumerate() {
            let bound = bind_expr(db, group_expr)?;
            let item = match group_expr {
                // A qualified grouping column keeps its qualifier, so that
                // `SELECT r1.g, count(*) … GROUP BY r1.g` resolves `r1.g`
                // above the aggregation (an unqualified `g` still does).
                SqlExpr::Column { qualifier, name } => ProjectItem {
                    expr: bound,
                    alias: name.as_str().into(),
                    qualifier: qualifier.as_deref().map(Name::from),
                },
                _ => ProjectItem::new(bound, format!("group_{i}")),
            };
            group_items.push(item);
        }
        let mut aggregates = Vec::new();
        for spec in &collector.aggregates {
            let arg = match &spec.arg {
                Some(a) => Some(bind_expr(db, a)?),
                None => None,
            };
            aggregates.push(AggregateExpr {
                func: spec.func,
                arg,
                distinct: spec.distinct,
                alias: spec.alias.as_str().into(),
            });
        }
        if group_items.is_empty() && aggregates.is_empty() {
            return Err(SqlError::Bind(
                "GROUP BY without grouping expressions or aggregates".into(),
            ));
        }
        plan = Plan::Aggregate {
            input: PlanRef::new(plan),
            group_by: group_items,
            aggregates,
        };
    }

    // HAVING clause (after aggregation).
    if let Some(h) = &having {
        plan = Plan::Select {
            input: PlanRef::new(plan),
            predicate: bind_expr(db, h)?,
        };
    }

    // SELECT list.
    let schema_before_projection = plan.schema();
    let mut items: Vec<ProjectItem> = Vec::new();
    // Pairs of (source, output alias) used to map ORDER BY keys onto output
    // columns.
    let mut output_exprs: Vec<(OutputSource, Name)> = Vec::new();
    for (i, (expr, alias)) in select_exprs.iter().enumerate() {
        if matches!(expr, SqlExpr::Wildcard) {
            for attr in schema_before_projection.attributes() {
                items.push(ProjectItem::passthrough(attr));
                output_exprs.push((OutputSource::Star(attr), attr.name));
            }
            continue;
        }
        let bound = bind_expr(db, expr)?;
        let alias = match alias {
            Some(a) => Name::from(a.as_str()),
            None => bound.default_name(i),
        };
        output_exprs.push((OutputSource::Expr(expr), alias));
        items.push(ProjectItem::new(bound, alias));
    }
    if items.is_empty() {
        return Err(SqlError::Bind("empty select list".into()));
    }
    // An output name two select items share (`x.b, y.b`) keeps the
    // qualifier of its column reference, as `*` does, so that a reference
    // above the projection (the provenance rewrite's join back under a
    // `LIMIT`) can still tell the two apart.
    for (item, (source, _)) in items.iter_mut().zip(&output_exprs) {
        if let OutputSource::Expr(SqlExpr::Column {
            qualifier: Some(q), ..
        }) = source
        {
            let shared = output_exprs
                .iter()
                .filter(|(_, alias)| alias.eq_folded(item.alias))
                .count()
                > 1;
            if shared {
                item.qualifier = Some(Name::from(q.as_str()));
            }
        }
    }

    // ORDER BY keys can reference output columns (by alias or by repeating
    // the select expression) or, as standard SQL allows, columns of the
    // underlying input that were not projected. In the first case the sort is
    // placed above the projection; in the second case below it (projection
    // preserves row order in this engine).
    let output_schema = Schema::new(
        output_exprs
            .iter()
            .map(|(_, alias)| Attribute::new(*alias, DataType::Any))
            .collect(),
    );
    let sort_above = !order_by.is_empty()
        && order_by.iter().all(|(key, _)| {
            // An output name two select items share (`x.b, y.b`) cannot
            // name the sort key: such a key sorts below the projection,
            // where its qualifier still resolves.
            map_order_key(key, &output_exprs)
                .is_some_and(|alias| output_schema.try_resolve(None, alias).is_ok())
        });
    let mut below_keys = Vec::new();
    if !order_by.is_empty() && !sort_above {
        for (expr, ascending) in &order_by {
            below_keys.push(SortKey {
                expr: bind_expr(db, expr)?,
                ascending: *ascending,
            });
        }
        plan = Plan::Sort {
            input: PlanRef::new(plan),
            keys: below_keys,
        };
    }

    plan = Plan::Project {
        input: PlanRef::new(plan),
        items,
        distinct: query.distinct,
    };

    if sort_above {
        let mut keys = Vec::new();
        for (expr, ascending) in &order_by {
            let alias = map_order_key(expr, &output_exprs).expect("checked above");
            keys.push(SortKey {
                expr: col(alias),
                ascending: *ascending,
            });
        }
        plan = Plan::Sort {
            input: PlanRef::new(plan),
            keys,
        };
    }
    if let Some(limit) = query.limit {
        plan = Plan::Limit {
            input: PlanRef::new(plan),
            limit,
        };
    }

    Ok(plan)
}

/// Where an output column of the select list comes from: a select
/// expression, or an input attribute that `*` expands to.
enum OutputSource<'q> {
    Expr(&'q SqlExpr),
    Star(&'q Attribute),
}

impl OutputSource<'_> {
    /// `true` when `key` repeats this source verbatim (a `*` attribute is
    /// repeated by the column reference spelled with its qualifier and name).
    fn is_repeated_by(&self, key: &SqlExpr) -> bool {
        match self {
            OutputSource::Expr(expr) => *expr == key,
            OutputSource::Star(attr) => matches!(
                key,
                SqlExpr::Column { qualifier, name }
                    if qualifier.as_deref() == attr.qualifier.as_deref() && **name == *attr.name
            ),
        }
    }
}

/// Maps an ORDER BY key onto an output column of the select list: either the
/// key repeats a select expression verbatim, or it names an output alias
/// (optionally qualified).
fn map_order_key(key: &SqlExpr, output_exprs: &[(OutputSource, Name)]) -> Option<Name> {
    if let Some((_, alias)) = output_exprs
        .iter()
        .find(|(source, _)| source.is_repeated_by(key))
    {
        return Some(*alias);
    }
    if let SqlExpr::Column { name, .. } = key {
        if let Some((_, alias)) = output_exprs
            .iter()
            .find(|(_, alias)| alias.eq_ignore_ascii_case(name))
        {
            return Some(*alias);
        }
    }
    None
}

fn bind_table_ref(db: &Database, table_ref: &TableRef) -> Result<Plan> {
    match table_ref {
        TableRef::Table { name, alias } => PlanBuilder::scan_as(db, name, alias.as_deref())
            .map(|b| b.build())
            .map_err(|e| SqlError::Bind(e.to_string())),
        TableRef::Subquery { query, alias } => {
            let inner = bind_query(db, query)?;
            // Re-qualify the derived table's columns with its alias.
            let qualifier = Name::from(alias.as_str());
            let items: Vec<ProjectItem> = inner
                .schema()
                .attributes()
                .iter()
                .map(|attr| ProjectItem::new(col(attr.name), attr.name).with_qualifier(qualifier))
                .collect();
            Ok(Plan::Project {
                input: PlanRef::new(inner),
                items,
                distinct: false,
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let left_plan = bind_table_ref(db, left)?;
            let right_plan = bind_table_ref(db, right)?;
            Ok(Plan::Join {
                left: PlanRef::new(left_plan),
                right: PlanRef::new(right_plan),
                kind: match kind {
                    JoinType::Inner => JoinKind::Inner,
                    JoinType::LeftOuter => JoinKind::LeftOuter,
                },
                condition: bind_expr(db, on)?,
            })
        }
    }
}

/// One aggregate call found in the query, to be computed by the `Aggregate`
/// operator and referenced by its alias everywhere else.
#[derive(Debug, Clone, PartialEq)]
struct AggregateSpec {
    func: AggFunc,
    arg: Option<SqlExpr>,
    distinct: bool,
    alias: String,
}

#[derive(Debug, Default)]
struct AggregateCollector {
    aggregates: Vec<AggregateSpec>,
}

impl AggregateCollector {
    /// Returns a copy of `expr` with aggregate calls replaced by column
    /// references to generated aliases, recording the aggregates to compute.
    fn extract(&mut self, expr: &SqlExpr) -> SqlExpr {
        match expr {
            SqlExpr::Func {
                name,
                args,
                distinct,
            } if is_aggregate_name(name) => {
                let (func, arg) = match (name.to_ascii_lowercase().as_str(), args.as_slice()) {
                    ("count", [SqlExpr::Wildcard]) | ("count", []) => (AggFunc::CountStar, None),
                    ("count", [a]) => (AggFunc::Count, Some(a.clone())),
                    ("sum", [a]) => (AggFunc::Sum, Some(a.clone())),
                    ("avg", [a]) => (AggFunc::Avg, Some(a.clone())),
                    ("min", [a]) => (AggFunc::Min, Some(a.clone())),
                    ("max", [a]) => (AggFunc::Max, Some(a.clone())),
                    _ => (AggFunc::CountStar, None),
                };
                // Reuse an existing identical aggregate if there is one.
                if let Some(existing) = self
                    .aggregates
                    .iter()
                    .find(|s| s.func == func && s.arg == arg && s.distinct == *distinct)
                {
                    return SqlExpr::Column {
                        qualifier: None,
                        name: existing.alias.clone(),
                    };
                }
                let alias = format!("agg_{}", self.aggregates.len());
                self.aggregates.push(AggregateSpec {
                    func,
                    arg,
                    distinct: *distinct,
                    alias: alias.clone(),
                });
                SqlExpr::Column {
                    qualifier: None,
                    name: alias,
                }
            }
            SqlExpr::Binary { op, left, right } => SqlExpr::Binary {
                op: *op,
                left: Box::new(self.extract(left)),
                right: Box::new(self.extract(right)),
            },
            SqlExpr::Not(e) => SqlExpr::Not(Box::new(self.extract(e))),
            SqlExpr::Neg(e) => SqlExpr::Neg(Box::new(self.extract(e))),
            SqlExpr::IsNull { expr, negated } => SqlExpr::IsNull {
                expr: Box::new(self.extract(expr)),
                negated: *negated,
            },
            SqlExpr::Func {
                name,
                args,
                distinct,
            } => SqlExpr::Func {
                name: name.clone(),
                args: args.iter().map(|a| self.extract(a)).collect(),
                distinct: *distinct,
            },
            SqlExpr::Case {
                branches,
                else_expr,
            } => SqlExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (self.extract(c), self.extract(v)))
                    .collect(),
                else_expr: else_expr.as_ref().map(|e| Box::new(self.extract(e))),
            },
            SqlExpr::Between {
                expr,
                low,
                high,
                negated,
            } => SqlExpr::Between {
                expr: Box::new(self.extract(expr)),
                low: Box::new(self.extract(low)),
                high: Box::new(self.extract(high)),
                negated: *negated,
            },
            SqlExpr::InList {
                expr,
                list,
                negated,
            } => SqlExpr::InList {
                expr: Box::new(self.extract(expr)),
                list: list.iter().map(|e| self.extract(e)).collect(),
                negated: *negated,
            },
            SqlExpr::InSubquery {
                expr,
                query,
                negated,
            } => SqlExpr::InSubquery {
                expr: Box::new(self.extract(expr)),
                query: query.clone(),
                negated: *negated,
            },
            SqlExpr::Quantified {
                expr,
                op,
                quantifier,
                query,
            } => SqlExpr::Quantified {
                expr: Box::new(self.extract(expr)),
                op: *op,
                quantifier: *quantifier,
                query: query.clone(),
            },
            other => other.clone(),
        }
    }
}

fn compare_op(op: SqlBinaryOp) -> Option<CompareOp> {
    match op {
        SqlBinaryOp::Eq => Some(CompareOp::Eq),
        SqlBinaryOp::Neq => Some(CompareOp::Neq),
        SqlBinaryOp::Lt => Some(CompareOp::Lt),
        SqlBinaryOp::Le => Some(CompareOp::Le),
        SqlBinaryOp::Gt => Some(CompareOp::Gt),
        SqlBinaryOp::Ge => Some(CompareOp::Ge),
        _ => None,
    }
}

/// Binds a scalar expression.
pub fn bind_expr(db: &Database, expr: &SqlExpr) -> Result<Expr> {
    Ok(match expr {
        SqlExpr::Column { qualifier, name } => match qualifier {
            Some(q) => qcol(q.as_str(), name.as_str()),
            None => col(name.as_str()),
        },
        SqlExpr::Number(text) => {
            if text.contains('.') {
                lit(text
                    .parse::<f64>()
                    .map_err(|_| SqlError::Bind(format!("invalid numeric literal `{text}`")))?)
            } else {
                lit(text
                    .parse::<i64>()
                    .map_err(|_| SqlError::Bind(format!("invalid numeric literal `{text}`")))?)
            }
        }
        SqlExpr::StringLit(s) => lit(s.as_str()),
        SqlExpr::DateLit(s) => Expr::Literal(
            Value::parse_date(s)
                .ok_or_else(|| SqlError::Bind(format!("invalid date literal `{s}`")))?,
        ),
        SqlExpr::Null => Expr::Literal(Value::Null),
        SqlExpr::Bool(b) => lit(*b),
        SqlExpr::Param(index) => Expr::Param(*index),
        SqlExpr::Wildcard => {
            return Err(SqlError::Bind(
                "`*` is only allowed in count(*) or as a select item".into(),
            ))
        }
        SqlExpr::Binary { op, left, right } => {
            let l = bind_expr(db, left)?;
            let r = bind_expr(db, right)?;
            let bin_op = match op {
                SqlBinaryOp::Add => BinaryOp::Add,
                SqlBinaryOp::Sub => BinaryOp::Sub,
                SqlBinaryOp::Mul => BinaryOp::Mul,
                SqlBinaryOp::Div => BinaryOp::Div,
                SqlBinaryOp::Mod => BinaryOp::Mod,
                SqlBinaryOp::And => BinaryOp::And,
                SqlBinaryOp::Or => BinaryOp::Or,
                SqlBinaryOp::Like => BinaryOp::Like,
                SqlBinaryOp::NotLike => BinaryOp::NotLike,
                SqlBinaryOp::Concat => BinaryOp::Concat,
                other => BinaryOp::Cmp(compare_op(*other).expect("comparison operator")),
            };
            Expr::Binary {
                op: bin_op,
                left: Box::new(l),
                right: Box::new(r),
            }
        }
        SqlExpr::Not(e) => not(bind_expr(db, e)?),
        SqlExpr::Neg(e) => Expr::Unary {
            op: perm_algebra::UnaryOp::Neg,
            expr: Box::new(bind_expr(db, e)?),
        },
        SqlExpr::IsNull { expr, negated } => Expr::Unary {
            op: if *negated {
                perm_algebra::UnaryOp::IsNotNull
            } else {
                perm_algebra::UnaryOp::IsNull
            },
            expr: Box::new(bind_expr(db, expr)?),
        },
        SqlExpr::Func {
            name,
            args,
            distinct: _,
        } => {
            if is_aggregate_name(name) {
                return Err(SqlError::Bind(format!(
                    "aggregate function `{name}` is not allowed in this context"
                )));
            }
            let func = match name.as_str() {
                "substring" | "substr" => FuncName::Substring,
                "abs" => FuncName::Abs,
                "coalesce" => FuncName::Coalesce,
                "lower" => FuncName::Lower,
                "upper" => FuncName::Upper,
                "length" | "char_length" => FuncName::Length,
                "date" => FuncName::Date,
                "year" | "extract_year" => FuncName::Year,
                other => {
                    return Err(SqlError::Bind(format!("unknown function `{other}`")));
                }
            };
            Expr::Func {
                name: func,
                args: args
                    .iter()
                    .map(|a| bind_expr(db, a))
                    .collect::<Result<Vec<_>>>()?,
            }
        }
        SqlExpr::Case {
            branches,
            else_expr,
        } => Expr::Case {
            branches: branches
                .iter()
                .map(|(c, v)| Ok((bind_expr(db, c)?, bind_expr(db, v)?)))
                .collect::<Result<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind_expr(db, e)?)),
                None => None,
            },
        },
        SqlExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let b = between(
                bind_expr(db, expr)?,
                bind_expr(db, low)?,
                bind_expr(db, high)?,
            );
            if *negated {
                not(b)
            } else {
                b
            }
        }
        SqlExpr::InList {
            expr,
            list,
            negated,
        } => {
            let l = in_list(
                bind_expr(db, expr)?,
                list.iter()
                    .map(|e| bind_expr(db, e))
                    .collect::<Result<Vec<_>>>()?,
            );
            if *negated {
                not(l)
            } else {
                l
            }
        }
        SqlExpr::InSubquery {
            expr,
            query,
            negated,
        } => {
            let sub = bind_quantified_query(db, query)?;
            let link = any_sublink(bind_expr(db, expr)?, CompareOp::Eq, sub);
            if *negated {
                not(link)
            } else {
                link
            }
        }
        SqlExpr::Exists { query, negated } => {
            let sub = bind_query(db, query)?;
            let link = exists_sublink(sub);
            if *negated {
                not(link)
            } else {
                link
            }
        }
        SqlExpr::Quantified {
            expr,
            op,
            quantifier,
            query,
        } => {
            let sub = bind_quantified_query(db, query)?;
            let cmp = compare_op(*op).ok_or_else(|| {
                SqlError::Bind("quantified comparison requires a comparison operator".into())
            })?;
            let test = bind_expr(db, expr)?;
            match quantifier {
                Quantifier::Any => any_sublink(test, cmp, sub),
                Quantifier::All => all_sublink(test, cmp, sub),
            }
        }
        SqlExpr::ScalarSubquery(query) => scalar_sublink(bind_query(db, query)?),
    })
}

/// Binds the subquery of `IN` / `ANY` / `ALL`, which compares against
/// exactly one column.
fn bind_quantified_query(db: &Database, query: &Query) -> Result<Plan> {
    let sub = bind_query(db, query)?;
    match sub.schema().arity() {
        1 => Ok(sub),
        n => Err(SqlError::Bind(format!(
            "subquery of IN / ANY / ALL must return one column, not {n}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_exec::Executor;
    use perm_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "r",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("r", "a", DataType::Int),
                    Attribute::qualified("r", "b", DataType::Int),
                ]),
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
                Schema::new(vec![
                    Attribute::qualified("s", "c", DataType::Int),
                    Attribute::qualified("s", "d", DataType::Int),
                ]),
                vec![
                    vec![Value::Int(1), Value::Int(3)],
                    vec![Value::Int(2), Value::Int(4)],
                    vec![Value::Int(4), Value::Int(5)],
                ],
            ),
        )
        .unwrap();
        db
    }

    fn run(sql: &str) -> Relation {
        let db = db();
        let (plan, _) = crate::compile(&db, sql).unwrap();
        Executor::new(&db).execute(&plan).unwrap()
    }

    #[test]
    fn simple_select_where() {
        let result = run("SELECT b FROM r WHERE a = 3");
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(2));
    }

    #[test]
    fn select_star_expands() {
        let result = run("SELECT * FROM r");
        assert_eq!(result.schema().names(), ["a", "b"].map(Name::from));
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn any_sublink_via_in() {
        let result = run("SELECT a FROM r WHERE a IN (SELECT c FROM s)");
        assert_eq!(result.len(), 2);
        let result = run("SELECT a FROM r WHERE a NOT IN (SELECT c FROM s)");
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(3));
    }

    #[test]
    fn correlated_exists() {
        let result = run("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.c = r.a)");
        assert_eq!(result.len(), 2);
        let result = run("SELECT a FROM r WHERE NOT EXISTS (SELECT * FROM s WHERE s.c = r.a)");
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let result = run("SELECT a FROM r WHERE a = (SELECT min(c) FROM s)");
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(1));
    }

    #[test]
    fn group_by_having_aggregates() {
        let result = run("SELECT b, sum(a) AS total, count(*) AS n FROM r GROUP BY b HAVING sum(a) > 2 ORDER BY total DESC");
        assert_eq!(result.schema().names(), ["b", "total", "n"].map(Name::from));
        assert_eq!(result.len(), 2);
        assert_eq!(result.tuples()[0].get(1), &Value::Int(3));
    }

    #[test]
    fn quantified_all_comparison() {
        let result = run("SELECT c FROM s WHERE c > ALL (SELECT a FROM r)");
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(4));
    }

    #[test]
    fn joins_and_aliases() {
        let result = run("SELECT r.a, x.d FROM r JOIN s x ON r.a = x.c");
        assert_eq!(result.len(), 2);
        let result = run("SELECT r.a, x.d FROM r LEFT JOIN s x ON r.a = x.c ORDER BY r.a");
        assert_eq!(result.len(), 3);
        assert!(result.tuples()[2].get(1).is_null());
    }

    #[test]
    fn derived_table_with_alias() {
        let result = run(
            "SELECT t.total FROM (SELECT b, sum(a) AS total FROM r GROUP BY b) t WHERE t.total > 2",
        );
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn distinct_and_limit() {
        let result = run("SELECT DISTINCT b FROM r");
        assert_eq!(result.len(), 2);
        let result = run("SELECT a FROM r ORDER BY a DESC LIMIT 2");
        assert_eq!(result.len(), 2);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(3));
    }

    #[test]
    fn case_and_functions() {
        let result = run(
            "SELECT CASE WHEN a > 1 THEN upper('big') ELSE lower('SMALL') END AS label FROM r ORDER BY a",
        );
        assert_eq!(result.tuples()[0].get(0), &Value::str("small"));
        assert_eq!(result.tuples()[1].get(0), &Value::str("BIG"));
    }

    #[test]
    fn binds_and_executes_query_parameters() {
        let db = db();
        let (plan, _) = crate::compile(&db, "SELECT a FROM r WHERE a = $1").unwrap();
        assert_eq!(perm_algebra::visit::param_count(&plan), 1);
        let ex = Executor::new(&db);
        ex.bind_params(vec![Value::Int(2)]);
        let result = ex.execute(&plan).unwrap();
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(2));
        // Rebinding changes the result without recompiling the SQL.
        ex.bind_params(vec![Value::Int(3)]);
        let result = ex.execute(&plan).unwrap();
        assert_eq!(result.tuples()[0].get(0), &Value::Int(3));
        // An unbound parameter is an execution-time error.
        ex.bind_params(vec![]);
        assert!(ex.execute(&plan).is_err());
    }

    #[test]
    fn unknown_table_and_function_errors() {
        let db = db();
        assert!(matches!(
            crate::compile(&db, "SELECT * FROM missing"),
            Err(SqlError::Bind(_))
        ));
        assert!(matches!(
            crate::compile(&db, "SELECT frobnicate(a) FROM r"),
            Err(SqlError::Bind(_))
        ));
    }

    #[test]
    fn provenance_flag_is_surfaced() {
        let db = db();
        let (_, provenance) = crate::compile(&db, "SELECT PROVENANCE a FROM r").unwrap();
        assert!(provenance);
        let (_, provenance) = crate::compile(&db, "SELECT a FROM r").unwrap();
        assert!(!provenance);
    }
}
