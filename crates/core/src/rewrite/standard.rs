//! The standard Perm rewrite rules for operators without sublinks
//! (Figure 4, rules R1–R5, plus join, set-operation, sort and limit rules).

use super::{ProvenanceRewriter, RewriteResult};
use crate::provschema::{ProvEntry, ProvenanceDescriptor};
use crate::{ProvenanceError, Result};
use perm_algebra::builder::{col, conjunction, null, null_safe_eq, PlanBuilder};
use perm_algebra::{Expr, JoinKind, Plan, PlanRef, ProjectItem, SetOpKind};
use perm_storage::{Name, Schema};

/// Rewrites an operator that carries no sublinks in its own expressions
/// (children are rewritten recursively and may well contain sublinks).
pub(crate) fn rewrite_standard(
    rw: &mut ProvenanceRewriter<'_>,
    plan: &Plan,
) -> Result<RewriteResult> {
    match plan {
        Plan::Scan { table, schema, .. } => rewrite_scan(rw, table, schema),
        Plan::Values { .. } => Ok(RewriteResult {
            plan: plan.clone(),
            descriptor: ProvenanceDescriptor::empty(),
        }),
        Plan::Project {
            input,
            items,
            distinct,
        } => {
            // R2: (Π_A(T))+ = Π_{A, P(T+)}(T+)
            let input_rw = rw.rewrite(input)?;
            let mut new_items = items.clone();
            for prov in input_rw.descriptor.attr_names() {
                new_items.push(ProjectItem::column(prov));
            }
            let plan = Plan::Project {
                input: PlanRef::new(input_rw.plan),
                items: new_items,
                distinct: *distinct,
            };
            Ok(RewriteResult {
                plan,
                descriptor: input_rw.descriptor,
            })
        }
        Plan::Select { input, predicate } => {
            // R3: (σ_C(T))+ = σ_C(T+)
            let input_rw = rw.rewrite(input)?;
            Ok(RewriteResult {
                plan: Plan::Select {
                    input: PlanRef::new(input_rw.plan),
                    predicate: predicate.clone(),
                },
                descriptor: input_rw.descriptor,
            })
        }
        Plan::CrossProduct { left, right } => {
            // R4: (T1 × T2)+ = T1+ × T2+
            let left_rw = rw.rewrite(left)?;
            let right_rw = rw.rewrite(right)?;
            Ok(RewriteResult {
                plan: Plan::CrossProduct {
                    left: PlanRef::new(left_rw.plan),
                    right: PlanRef::new(right_rw.plan),
                },
                descriptor: left_rw.descriptor.concat(&right_rw.descriptor),
            })
        }
        Plan::Join {
            left,
            right,
            kind,
            condition,
        } => {
            // Join rule: (T1 ⋈_C T2)+ = T1+ ⋈_C T2+. For a left outer join
            // the NULL padding of the right side also pads its provenance
            // attributes, which is exactly the representation of "no tuple of
            // T2 contributed".
            let left_rw = rw.rewrite(left)?;
            let right_rw = rw.rewrite(right)?;
            Ok(RewriteResult {
                plan: Plan::Join {
                    left: PlanRef::new(left_rw.plan),
                    right: PlanRef::new(right_rw.plan),
                    kind: *kind,
                    condition: condition.clone(),
                },
                descriptor: left_rw.descriptor.concat(&right_rw.descriptor),
            })
        }
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => rewrite_aggregate(rw, plan, input, group_by, aggregates),
        Plan::SetOp {
            op,
            all,
            left,
            right,
        } => rewrite_setop(rw, plan, *op, *all, left, right),
        Plan::Sort { input, keys } => {
            let input_rw = rw.rewrite(input)?;
            Ok(RewriteResult {
                plan: Plan::Sort {
                    input: PlanRef::new(input_rw.plan),
                    keys: keys.clone(),
                },
                descriptor: input_rw.descriptor,
            })
        }
        Plan::Limit { input, limit } => rewrite_limit(rw, plan, input, *limit),
    }
}

/// R1: `R+ = Π_{R, R→P(R)}(R)`.
fn rewrite_scan(
    rw: &mut ProvenanceRewriter<'_>,
    table: &str,
    schema: &Schema,
) -> Result<RewriteResult> {
    let occurrence = rw.next_occurrence(table);
    let prov_schema = schema.provenance_schema(table, occurrence);
    // Pass the original attributes through with their qualifiers intact so
    // that qualified references from enclosing scopes (correlated sublinks in
    // particular) still resolve against the rewritten scan.
    let mut items: Vec<ProjectItem> = schema
        .attributes()
        .iter()
        .map(ProjectItem::passthrough)
        .collect();
    for (orig, prov) in schema.attributes().iter().zip(prov_schema.attributes()) {
        items.push(ProjectItem::new(col(orig.name), prov.name));
    }
    let scan = Plan::Scan {
        table: table.to_string(),
        alias: None,
        schema: schema.clone(),
    };
    let plan = PlanBuilder::from_plan(scan).project(items).build();
    let descriptor = ProvenanceDescriptor::new(vec![ProvEntry {
        table: table.to_string(),
        occurrence,
        original_schema: schema.clone(),
        prov_schema,
    }]);
    Ok(RewriteResult { plan, descriptor })
}

/// R5: `(α_{G,agg}(T))+ = Π_{G,agg,P(T+)}(α_{G,agg}(T) ⟕_{G =n Ĝ} Π_{G→Ĝ,P(T+)}(T+))`.
///
/// The original aggregation result is joined back to the rewritten input on
/// the grouping attributes; a left outer join (and null-safe equality on the
/// group keys) keeps the original result intact even for empty inputs or NULL
/// group keys. With an empty `G` (a global aggregate) the join condition is
/// `true`, so every input tuple contributes to the single result tuple.
fn rewrite_aggregate(
    rw: &mut ProvenanceRewriter<'_>,
    original: &Plan,
    input: &Plan,
    group_by: &[ProjectItem],
    aggregates: &[perm_algebra::AggregateExpr],
) -> Result<RewriteResult> {
    let _ = aggregates;
    let input_rw = rw.rewrite(input)?;

    // Right side: Π_{G→Ĝ, P(T+)}(T+).
    let hat_names: Vec<Name> = group_by
        .iter()
        .map(|g| rw.fresh(format_args!("grp_{}", g.alias)))
        .collect();
    let mut right_items: Vec<ProjectItem> = group_by
        .iter()
        .zip(hat_names.iter())
        .map(|(g, hat)| ProjectItem::new(g.expr.clone(), *hat))
        .collect();
    for prov in input_rw.descriptor.attr_names() {
        right_items.push(ProjectItem::column(prov));
    }
    let right = PlanBuilder::from_plan(input_rw.plan)
        .project(right_items)
        .build();

    // Join the *original* aggregation with the provenance of its input.
    let condition = conjunction(group_by.iter().zip(hat_names.iter()).map(|(g, hat)| {
        // By its qualifier too: `GROUP BY x.a, y.a` names two `a`s.
        let group_ref = Expr::Column {
            qualifier: g.qualifier,
            name: g.alias,
        };
        null_safe_eq(group_ref, col(*hat))
    }));
    let joined = Plan::Join {
        left: PlanRef::new(original.clone()),
        right: PlanRef::new(right),
        kind: JoinKind::LeftOuter,
        condition,
    };

    // Final projection: the original aggregate schema plus the provenance
    // attributes (dropping the Ĝ helper attributes).
    // Qualified grouping attributes stay qualified for the operators above.
    let mut out_items: Vec<ProjectItem> = original
        .schema()
        .attributes()
        .iter()
        .map(ProjectItem::passthrough)
        .collect();
    for prov in input_rw.descriptor.attr_names() {
        out_items.push(ProjectItem::column(prov));
    }
    let plan = PlanBuilder::from_plan(joined).project(out_items).build();
    Ok(RewriteResult {
        plan,
        descriptor: input_rw.descriptor,
    })
}

/// Set operations.
///
/// * Union: each branch is padded with NULL provenance attributes for the
///   other branch's base relations, then the union is taken over the extended
///   schema.
/// * Intersection / difference: only the left input contributes provenance
///   (following Cui & Widom for difference); the original set-operation
///   result is joined back to `T1+` on all original attributes.
fn rewrite_setop(
    rw: &mut ProvenanceRewriter<'_>,
    original: &Plan,
    op: SetOpKind,
    all: bool,
    left: &Plan,
    right: &Plan,
) -> Result<RewriteResult> {
    match op {
        SetOpKind::Union => {
            let left_rw = rw.rewrite(left)?;
            let right_rw = rw.rewrite(right)?;
            let left_names = left.schema().names();
            let right_names = right.schema().names();

            // Left branch keeps its original attribute names, appends its own
            // provenance and NULL columns for the right branch's provenance.
            let mut left_items: Vec<ProjectItem> = left_names
                .iter()
                .cloned()
                .map(ProjectItem::column)
                .collect();
            for prov in left_rw.descriptor.attr_names() {
                left_items.push(ProjectItem::column(prov));
            }
            for prov in right_rw.descriptor.attr_names() {
                left_items.push(ProjectItem::new(null(), prov));
            }
            let left_branch = PlanBuilder::from_plan(left_rw.plan)
                .project(left_items)
                .build();

            // Right branch: rename its attributes to the left branch's names
            // (set operations are positional), NULL-pad the left provenance.
            let mut right_items: Vec<ProjectItem> = right_names
                .iter()
                .zip(left_names.iter())
                .map(|(r, l)| ProjectItem::new(col(*r), *l))
                .collect();
            for prov in left_rw.descriptor.attr_names() {
                right_items.push(ProjectItem::new(null(), prov));
            }
            for prov in right_rw.descriptor.attr_names() {
                right_items.push(ProjectItem::column(prov));
            }
            let right_branch = PlanBuilder::from_plan(right_rw.plan)
                .project(right_items)
                .build();

            Ok(RewriteResult {
                plan: Plan::SetOp {
                    op,
                    all,
                    left: PlanRef::new(left_branch),
                    right: PlanRef::new(right_branch),
                },
                descriptor: left_rw.descriptor.concat(&right_rw.descriptor),
            })
        }
        SetOpKind::Intersect | SetOpKind::Except => join_back(rw, original, left, "set operation"),
    }
}

/// `LIMIT` keeps only a prefix of the result, so the rewrite computes the
/// original (limited) result first and then joins it back to the rewritten
/// input to attach provenance (otherwise the provenance-induced duplication
/// would change which tuples survive the limit).
fn rewrite_limit(
    rw: &mut ProvenanceRewriter<'_>,
    original: &Plan,
    input: &Plan,
    _limit: usize,
) -> Result<RewriteResult> {
    join_back(rw, original, input, "limit")
}

/// A reference to attribute `i` of `schema`: its bare name where that
/// names it alone, otherwise qualified (`SELECT x.b, y.b` repeats `b`).
fn attr_ref(schema: &Schema, i: usize) -> Expr {
    let attr = schema.attr(i);
    match schema.try_resolve(None, attr.name) {
        Ok(Some(j)) if j == i => col(attr.name),
        _ => Expr::Column {
            qualifier: attr.qualifier,
            name: attr.name,
        },
    }
}

/// Generic "join back" rule: run the original operator unchanged, rename its
/// output attributes to fresh names, left-outer-join it with the rewritten
/// `source` on null-safe equality of all original attributes, and project
/// back to the original names plus provenance.
fn join_back(
    rw: &mut ProvenanceRewriter<'_>,
    original: &Plan,
    source: &Plan,
    what: &str,
) -> Result<RewriteResult> {
    let source_rw = rw.rewrite(source)?;
    let original_schema = original.schema();
    if original_schema.arity() != source.schema().arity() {
        return Err(ProvenanceError::Unsupported(format!(
            "cannot attach provenance to {what}: schema mismatch between the operator and its \
             input"
        )));
    }

    let fresh_names: Vec<Name> = original_schema
        .attributes()
        .iter()
        .map(|a| rw.fresh(format_args!("orig_{}", a.name)))
        .collect();
    let renamed_items: Vec<ProjectItem> = fresh_names
        .iter()
        .enumerate()
        .map(|(i, fresh)| ProjectItem::new(attr_ref(&original_schema, i), *fresh))
        .collect();
    let renamed_original = PlanBuilder::from_plan(original.clone())
        .project(renamed_items)
        .build();

    let source_schema = source_rw.plan.schema();
    let condition = conjunction(
        fresh_names
            .iter()
            .enumerate()
            .map(|(i, fresh)| null_safe_eq(col(*fresh), attr_ref(&source_schema, i))),
    );
    let joined = Plan::Join {
        left: PlanRef::new(renamed_original),
        right: PlanRef::new(source_rw.plan),
        kind: JoinKind::LeftOuter,
        condition,
    };

    let mut out_items: Vec<ProjectItem> = fresh_names
        .iter()
        .zip(original_schema.attributes())
        .map(|(fresh, orig)| ProjectItem {
            expr: col(*fresh),
            alias: orig.name,
            qualifier: orig.qualifier,
        })
        .collect();
    for prov in source_rw.descriptor.attr_names() {
        out_items.push(ProjectItem::column(prov));
    }
    let plan = PlanBuilder::from_plan(joined).project(out_items).build();
    Ok(RewriteResult {
        plan,
        descriptor: source_rw.descriptor,
    })
}
