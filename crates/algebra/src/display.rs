//! `EXPLAIN`-style rendering of plans, used by the examples and for
//! debugging rewrites.

use crate::expr::Expr;
use crate::plan::Plan;
use std::fmt::Write as _;

/// Renders a plan as an indented operator tree. Sublink plans are rendered
/// inline, further indented, so the effect of the provenance rewrites on the
/// query structure is visible.
pub fn explain(plan: &Plan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn render(plan: &Plan, level: usize, out: &mut String) {
    indent(level, out);
    match plan {
        Plan::Scan { table, alias, .. } => {
            match alias {
                Some(a) => writeln!(out, "Scan {table} AS {a}").unwrap(),
                None => writeln!(out, "Scan {table}").unwrap(),
            };
        }
        Plan::Values { rows, .. } => {
            writeln!(out, "Values ({} rows)", rows.len()).unwrap();
        }
        Plan::Project {
            input,
            items,
            distinct,
        } => {
            let kind = if *distinct {
                "ProjectDistinct"
            } else {
                "Project"
            };
            let list: Vec<String> = items
                .iter()
                .map(|i| format!("{} AS {}", i.expr, i.alias))
                .collect();
            writeln!(out, "{kind} [{}]", list.join(", ")).unwrap();
            render_expr_sublinks(items.iter().map(|i| &i.expr), level + 1, out);
            render(input, level + 1, out);
        }
        Plan::Select { input, predicate } => {
            writeln!(out, "Select [{predicate}]").unwrap();
            render_expr_sublinks(std::iter::once(predicate), level + 1, out);
            render(input, level + 1, out);
        }
        Plan::CrossProduct { left, right } => {
            writeln!(out, "CrossProduct").unwrap();
            render(left, level + 1, out);
            render(right, level + 1, out);
        }
        Plan::Join {
            left,
            right,
            kind,
            condition,
        } => {
            writeln!(out, "Join {kind} [{condition}]").unwrap();
            render_expr_sublinks(std::iter::once(condition), level + 1, out);
            render(left, level + 1, out);
            render(right, level + 1, out);
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let groups: Vec<&str> = group_by.iter().map(|g| &*g.alias).collect();
            let aggs: Vec<String> = aggregates
                .iter()
                .map(|a| format!("{} AS {}", a.func, a.alias))
                .collect();
            writeln!(
                out,
                "Aggregate group=[{}] aggs=[{}]",
                groups.join(", "),
                aggs.join(", ")
            )
            .unwrap();
            render(input, level + 1, out);
        }
        Plan::SetOp {
            op,
            all,
            left,
            right,
        } => {
            writeln!(out, "SetOp {op}{}", if *all { " ALL" } else { "" }).unwrap();
            render(left, level + 1, out);
            render(right, level + 1, out);
        }
        Plan::Sort { input, keys } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|k| format!("{} {}", k.expr, if k.ascending { "ASC" } else { "DESC" }))
                .collect();
            writeln!(out, "Sort [{}]", ks.join(", ")).unwrap();
            render(input, level + 1, out);
        }
        Plan::Limit { input, limit } => {
            writeln!(out, "Limit {limit}").unwrap();
            render(input, level + 1, out);
        }
    }
}

fn render_expr_sublinks<'a>(exprs: impl Iterator<Item = &'a Expr>, level: usize, out: &mut String) {
    for expr in exprs {
        for sublink in expr.sublinks() {
            if let Expr::Sublink { kind, plan, .. } = sublink {
                indent(level, out);
                writeln!(out, "Sublink {kind}:").unwrap();
                render(plan, level + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{any_sublink, col, exists_sublink, lit, scalar_sublink, PlanBuilder};
    use crate::expr::CompareOp;
    use crate::plan::ProjectItem;
    use perm_storage::{Database, Relation, Schema};

    #[test]
    fn explain_renders_nested_sublinks() {
        let mut db = Database::new();
        db.create_table("r", Relation::empty(Schema::from_names(&["a"])))
            .unwrap();
        db.create_table("s", Relation::empty(Schema::from_names(&["c"])))
            .unwrap();
        let sub = PlanBuilder::scan(&db, "s").unwrap().build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .project(vec![
                ProjectItem::new(col("a"), "a"),
                ProjectItem::new(lit(1), "one"),
            ])
            .build();
        let text = explain(&q);
        assert!(text.contains("Project"));
        assert!(text.contains("Select"));
        assert!(text.contains("Sublink EXISTS"));
        assert!(text.contains("Scan s"));
        assert!(text.contains("Scan r"));

        // A sublink in another sublink's test expression is rendered too.
        let nested = any_sublink(
            scalar_sublink(PlanBuilder::scan(&db, "s").unwrap().build()),
            CompareOp::Eq,
            PlanBuilder::scan(&db, "r").unwrap().build(),
        );
        let q = PlanBuilder::scan(&db, "r").unwrap().select(nested).build();
        let text = explain(&q);
        assert!(text.contains("Sublink ANY"), "{text}");
        assert!(text.contains("Sublink SCALAR"), "{text}");
        assert!(text.contains("Scan s"), "{text}");
    }
}
