//! The **Left** rewrite strategy (rules L1 and L2 of Figure 5).
//!
//! For *uncorrelated* sublinks the rewritten sublink query `Tsub+` contains
//! no correlated attribute references and can therefore be joined directly:
//! the original query is left-outer-joined with `Tsub+` on the condition
//! `Jsub`, which restricts the joined tuples to the actual provenance of the
//! sublink (and NULL-pads the provenance when the sublink query is empty).
//!
//! The sublink `Csub` is duplicated inside `Jsub`. The rewrite emits the
//! paper's form as is; the optimizer (`perm_exec::optimize`, pushdown onto
//! the preserved side) moves the selection's `Csub` below the join, where
//! it establishes the copy in `Jsub` as TRUE: `Jsub` collapses to `C'sub`
//! (`ANY`, a hash key when the comparison is an equality) or to TRUE
//! (`ALL`), and the sublink is evaluated once per `T⁺` row instead of once
//! per joined pair. A sublink under a disjunction of `C`, and rule L2,
//! establish nothing and run as written.

use super::common::{
    collect_sublinks, jsub_condition, keep_columns, output_columns, require_join_rewritable,
    wrap_sublink_plus,
};
use super::{ProvenanceRewriter, RewriteResult};
use crate::Result;
use perm_algebra::builder::col;
use perm_algebra::{Expr, JoinKind, Plan, PlanRef, ProjectItem};

/// Rule L1: selections with uncorrelated sublinks.
///
/// `(σ_C(T))+ = Π_{T,P(T),P(Tsub1),…}(σ_C(T+ ⟕_{Jsub1} Tsub1+ … ⟕_{Jsubn} Tsubn+))`
pub(crate) fn rewrite_select(
    rw: &mut ProvenanceRewriter<'_>,
    input: &Plan,
    predicate: &Expr,
) -> Result<RewriteResult> {
    let input_rw = rw.rewrite(input)?;
    let infos = collect_sublinks(rw, std::iter::once(predicate))?;
    require_join_rewritable("Left", &infos)?;

    let input_plus_schema = input_rw.plan.schema();
    let mut plan = input_rw.plan;
    let mut descriptor = input_rw.descriptor;
    for info in &infos {
        let (wrapped, result_alias) = wrap_sublink_plus(rw, info);
        let jsub = jsub_condition(info, info.original.clone(), col(result_alias));
        plan = Plan::Join {
            left: PlanRef::new(plan),
            right: PlanRef::new(wrapped),
            kind: JoinKind::LeftOuter,
            condition: jsub,
        };
        descriptor = descriptor.concat(info.descriptor());
    }

    // The original condition (still containing the sublinks) filters the
    // joined result so that only original result tuples survive.
    plan = Plan::Select {
        input: PlanRef::new(plan),
        predicate: predicate.clone(),
    };

    let plan = keep_columns(plan, &output_columns(&input_plus_schema, &infos));
    Ok(RewriteResult { plan, descriptor })
}

/// Rule L2: projections with uncorrelated sublinks.
///
/// `(Π_A(T))+ = Π_{A,P(T),P(Tsub1),…}(T+ ⟕_{Jsub1} Tsub1+ … ⟕_{Jsubn} Tsubn+)`
pub(crate) fn rewrite_project(
    rw: &mut ProvenanceRewriter<'_>,
    input: &Plan,
    items: &[ProjectItem],
    distinct: bool,
) -> Result<RewriteResult> {
    let input_rw = rw.rewrite(input)?;
    let infos = collect_sublinks(rw, items.iter().map(|i| &i.expr))?;
    require_join_rewritable("Left", &infos)?;

    let mut plan = input_rw.plan;
    let mut descriptor = input_rw.descriptor;
    for info in &infos {
        let (wrapped, result_alias) = wrap_sublink_plus(rw, info);
        let jsub = jsub_condition(info, info.original.clone(), col(result_alias));
        plan = Plan::Join {
            left: PlanRef::new(plan),
            right: PlanRef::new(wrapped),
            kind: JoinKind::LeftOuter,
            condition: jsub,
        };
        descriptor = descriptor.concat(info.descriptor());
    }

    // Original projection list (sublinks recomputed to reproduce the original
    // output values) plus all provenance attributes.
    let mut out_items = items.to_vec();
    for prov in descriptor.attr_names() {
        out_items.push(ProjectItem::column(prov));
    }
    plan = Plan::Project {
        input: PlanRef::new(plan),
        items: out_items,
        distinct,
    };
    Ok(RewriteResult { plan, descriptor })
}
