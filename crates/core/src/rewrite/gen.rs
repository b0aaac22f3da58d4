//! The **Gen** rewrite strategy (rules G1 and G2 of Figure 5).
//!
//! Gen is the only strategy applicable to *every* sublink: correlated,
//! nested, and in arbitrary numbers. It joins the rewritten input with the
//! `CrossBase` of every sublink (the cross product of the sublink's base
//! relations, each extended by an all-NULL tuple) and filters the cross
//! product with the `Csub+` membership condition, which checks that a
//! `CrossBase` tuple really belongs to the provenance of the sublink under
//! the extended contribution definition (Definition 2).

use super::common::{collect_sublinks, cross_base, gen_csub_plus};
use super::{ProvenanceRewriter, RewriteResult};
use crate::Result;
use perm_algebra::builder::{and, conjunction};
use perm_algebra::{Expr, Plan, PlanRef, ProjectItem};

/// Rule G1: selections with sublinks.
///
/// `(σ_C(T))+ = σ_{C ∧ Csub1+ ∧ … ∧ Csubn+}(T+ × CrossBase(Tsub1) × … × CrossBase(Tsubn))`
pub(crate) fn rewrite_select(
    rw: &mut ProvenanceRewriter<'_>,
    input: &Plan,
    predicate: &Expr,
) -> Result<RewriteResult> {
    let input_rw = rw.rewrite(input)?;
    let infos = collect_sublinks(rw, std::iter::once(predicate))?;

    let mut plan = input_rw.plan;
    let mut descriptor = input_rw.descriptor;
    for info in &infos {
        let base = cross_base(rw, info.descriptor())?;
        plan = Plan::CrossProduct {
            left: PlanRef::new(plan),
            right: PlanRef::new(base),
        };
        descriptor = descriptor.concat(info.descriptor());
    }

    let mut condition = predicate.clone();
    for info in &infos {
        condition = and(condition, gen_csub_plus(rw, info));
    }
    plan = Plan::Select {
        input: PlanRef::new(plan),
        predicate: condition,
    };
    Ok(RewriteResult { plan, descriptor })
}

/// Rule G2: projections with sublinks.
///
/// The paper states
/// `(Π_A(T))+ = σ_{Csub1+ ∧ …}(Π_{A,P(T+)}(T+) × CrossBase(Tsub1) × …)`.
/// We apply the provenance filter *below* the projection
/// (`Π_{A,P(T+),P(CrossBase…)}(σ_{Csub1+ ∧ …}(T+ × CrossBase(Tsub1) × …))`),
/// which is equivalent but keeps the original input attributes in scope for
/// the membership conditions: the `Csub+` conditions reference the outer test
/// expressions and the correlated attributes of `Tsub`, which a projection
/// may have projected away. Evaluating `Csub+` per *input* tuple is also
/// exactly what Sections 2.4 and 2.6 require for sublinks in projections
/// (provenance per contributing input tuple, union over input tuples).
pub(crate) fn rewrite_project(
    rw: &mut ProvenanceRewriter<'_>,
    input: &Plan,
    items: &[ProjectItem],
    distinct: bool,
) -> Result<RewriteResult> {
    let input_rw = rw.rewrite(input)?;
    let infos = collect_sublinks(rw, items.iter().map(|i| &i.expr))?;

    let mut plan = input_rw.plan;
    let mut descriptor = input_rw.descriptor;
    for info in &infos {
        let base = cross_base(rw, info.descriptor())?;
        plan = Plan::CrossProduct {
            left: PlanRef::new(plan),
            right: PlanRef::new(base),
        };
        descriptor = descriptor.concat(info.descriptor());
    }

    let condition = conjunction(infos.iter().map(|info| gen_csub_plus(rw, info)));
    plan = Plan::Select {
        input: PlanRef::new(plan),
        predicate: condition,
    };

    // Outer projection: the original projection list (sublinks included, so
    // the original output values are reproduced) followed by all provenance
    // attributes.
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
