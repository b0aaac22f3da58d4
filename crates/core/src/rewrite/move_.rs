//! The **Move** rewrite strategy (rules T1 and T2 of Figure 5).
//!
//! Move is the Left strategy with one change: every sublink is evaluated
//! exactly once, in a projection below the provenance joins, and both the
//! selection condition and the join conditions `Jsub` reference the projected
//! result (`C_i`) instead of duplicating the sublink, so no engine can
//! re-evaluate the sublink per joined tuple pair. `Jsub` still reads `C_i`;
//! the optimizer (`perm_exec::optimize`, pushdown onto the preserved side)
//! moves `σ_{C_i}` below the join — through the projection, by
//! substitution — which establishes `C_i` as TRUE inside `Jsub` and leaves
//! `C'sub` (`ANY`) or TRUE (`ALL`) as the join condition; the then-unused
//! `C_i` item is pruned.
//!
//! Like Left, Move is only applicable to uncorrelated sublinks.

use super::common::{
    collect_sublinks, jsub_condition, keep_columns, output_columns, require_join_rewritable,
    wrap_sublink_plus,
};
use super::{ProvenanceRewriter, RewriteResult};
use crate::Result;
use perm_algebra::builder::col;
use perm_algebra::{Expr, JoinKind, Plan, PlanRef, ProjectItem};
use perm_storage::Name;

/// Builds the inner projection `Π_{T, P(T+), Csub1→C1, …, Csubm→Cm}(T+)`:
/// the rewritten input with one extra boolean/scalar attribute per sublink
/// holding the (single) evaluation of that sublink.
fn project_sublink_values(
    rw: &mut ProvenanceRewriter<'_>,
    input_plus: Plan,
    infos: &[super::SublinkInfo],
) -> (Plan, Vec<Name>) {
    let mut items: Vec<ProjectItem> = input_plus
        .schema()
        .attributes()
        .iter()
        .map(ProjectItem::passthrough)
        .collect();
    let mut value_names = Vec::with_capacity(infos.len());
    for info in infos {
        let name = rw.fresh("sublink_val");
        items.push(ProjectItem::new(info.original.clone(), name));
        value_names.push(name);
    }
    let plan = Plan::Project {
        input: PlanRef::new(input_plus),
        items,
        distinct: false,
    };
    (plan, value_names)
}

/// `expr` with each of its sublinks replaced by the next projected value
/// `C_i`. Move rewrites no sublink nested in a test expression, so the
/// rewriter meets the sublinks in [`collect_sublinks`] order.
fn with_values<'n>(expr: &Expr, values: &mut impl Iterator<Item = &'n Name>) -> Expr {
    expr.rewrite(&mut |e| match e {
        Expr::Sublink { .. } => values.next().map(|name| col(*name)),
        _ => None,
    })
    .unwrap_or_else(|| expr.clone())
}

/// Appends one left outer join per sublink, using the projected sublink value
/// `C_i` inside `Jsub`.
fn join_sublinks(
    rw: &mut ProvenanceRewriter<'_>,
    mut plan: Plan,
    infos: &[super::SublinkInfo],
    value_names: &[Name],
    descriptor: &mut crate::provschema::ProvenanceDescriptor,
) -> Plan {
    for (info, value_name) in infos.iter().zip(value_names.iter()) {
        let (wrapped, result_alias) = wrap_sublink_plus(rw, info);
        let jsub = jsub_condition(info, col(*value_name), col(result_alias));
        plan = Plan::Join {
            left: PlanRef::new(plan),
            right: PlanRef::new(wrapped),
            kind: JoinKind::LeftOuter,
            condition: jsub,
        };
        *descriptor = descriptor.concat(info.descriptor());
    }
    plan
}

/// Rule T1: selections with uncorrelated sublinks.
///
/// `(σ_C(T))+ = Π_{T,P(T+),P(Tsub…)}(σ_{Ctar}(Π_{T,P(T+),Csub→C…}(T+) ⟕_{Jsub1} Tsub1+ …))`
/// where `Ctar` is `C` with every sublink replaced by its projected value.
pub(crate) fn rewrite_select(
    rw: &mut ProvenanceRewriter<'_>,
    input: &Plan,
    predicate: &Expr,
) -> Result<RewriteResult> {
    let input_rw = rw.rewrite(input)?;
    let infos = collect_sublinks(rw, std::iter::once(predicate))?;
    require_join_rewritable("Move", &infos)?;

    let input_plus_schema = input_rw.plan.schema();
    let mut descriptor = input_rw.descriptor;

    let (plan, value_names) = project_sublink_values(rw, input_rw.plan, &infos);
    let plan = join_sublinks(rw, plan, &infos, &value_names, &mut descriptor);

    // Ctar: the original condition with sublinks replaced by the projected
    // attributes (each sublink is therefore evaluated exactly once).
    let ctar = with_values(predicate, &mut value_names.iter());
    let plan = Plan::Select {
        input: PlanRef::new(plan),
        predicate: ctar,
    };

    let plan = keep_columns(plan, &output_columns(&input_plus_schema, &infos));
    Ok(RewriteResult { plan, descriptor })
}

/// Rule T2: projections with uncorrelated sublinks.
///
/// The inner projection computes every sublink once (`A'`); the outer
/// projection re-assembles the original projection expressions with the
/// sublinks replaced by the projected values (`A''`) and appends the
/// provenance attributes.
pub(crate) fn rewrite_project(
    rw: &mut ProvenanceRewriter<'_>,
    input: &Plan,
    items: &[ProjectItem],
    distinct: bool,
) -> Result<RewriteResult> {
    let input_rw = rw.rewrite(input)?;
    let infos = collect_sublinks(rw, items.iter().map(|i| &i.expr))?;
    require_join_rewritable("Move", &infos)?;

    let mut descriptor = input_rw.descriptor;
    let (plan, value_names) = project_sublink_values(rw, input_rw.plan, &infos);
    let plan = join_sublinks(rw, plan, &infos, &value_names, &mut descriptor);

    // Rebuild the original projection list, substituting the projected
    // sublink values in the order `collect_sublinks` discovered them.
    let mut values = value_names.iter();
    let mut out_items: Vec<ProjectItem> = Vec::with_capacity(items.len() + descriptor.len());
    for item in items {
        out_items.push(ProjectItem::new(
            with_values(&item.expr, &mut values),
            item.alias,
        ));
    }
    for prov in descriptor.attr_names() {
        out_items.push(ProjectItem::column(prov));
    }
    let plan = Plan::Project {
        input: PlanRef::new(plan),
        items: out_items,
        distinct,
    };
    Ok(RewriteResult { plan, descriptor })
}
