//! The **Left** and **Move** rewrite strategies (rules L1, L2, T1 and T2 of
//! Figure 5), which apply to *uncorrelated* sublinks only.
//!
//! The rewritten sublink query `Tsub+` of an uncorrelated sublink contains
//! no correlated attribute references and can therefore be joined directly:
//! the rewritten input is left-outer-joined with each `Tsub+` on the
//! condition `Jsub`, which restricts the joined tuples to the actual
//! provenance of the sublink (and NULL-pads the provenance when the sublink
//! query is empty).
//!
//! * L1: `(σ_C(T))+ = Π_{T,P(T),P(Tsub1),…}(σ_C(T+ ⟕_{Jsub1} Tsub1+ … ⟕_{Jsubn} Tsubn+))`
//! * L2: `(Π_A(T))+ = Π_{A,P(T),P(Tsub1),…}(T+ ⟕_{Jsub1} Tsub1+ … ⟕_{Jsubn} Tsubn+)`
//!
//! Left duplicates the sublink `Csub` inside `Jsub` and keeps it in `C` and
//! `A`. Move is Left with one change: every sublink is evaluated exactly
//! once, in a projection `Csub→C_i` below the joins, and `Jsub`, the
//! selection condition (`Ctar`) and the projection list (`A''`) read the
//! projected value `C_i` instead, so no engine can re-evaluate the sublink
//! per joined tuple pair:
//!
//! * T1: `(σ_C(T))+ = Π_{T,P(T+),P(Tsub…)}(σ_{Ctar}(Π_{T,P(T+),Csub1→C1,…}(T+) ⟕_{Jsub1} Tsub1+ …))`
//! * T2: `(Π_A(T))+ = Π_{A'',P(T+),P(Tsub…)}(Π_{T,P(T+),Csub1→C1,…}(T+) ⟕_{Jsub1} Tsub1+ …)`
//!
//! Both emit the paper's form as is. The optimizer
//! (`perm_optimize::optimize`, pushdown onto the preserved side) moves the
//! selection's `Csub` (Left) or `σ_{C_i}` (Move, through the projection by
//! substitution) below the join, where it establishes the sublink's copy in
//! `Jsub` as TRUE: `Jsub` collapses to `C'sub` (`ANY`, a hash key when the
//! comparison is an equality) or to TRUE (`ALL`), and the sublink is
//! evaluated once per `T⁺` row instead of once per joined pair; Move's then
//! unused `C_i` item is pruned. A sublink under a disjunction of `C`, and
//! rules L2 and T2, establish nothing and run as written.

use super::common::{jsub_condition, wrap_sublink_plus, SublinkInfo};
use super::{Attached, ProvenanceRewriter};
use perm_algebra::builder::col;
use perm_algebra::{Expr, JoinKind, Plan, PlanRef, ProjectItem};
use perm_storage::Name;

/// `T+ ⟕_{Jsub1} Tsub1+ … ⟕_{Jsubn} Tsubn+`. With `project_values` (Move)
/// the joins sit on `Π_{T,P(T+),Csub1→C1,…}(T+)`, and each `Jsub` reads
/// `C_i` where Left's reads `Csub`.
pub(crate) fn attach(
    rw: &mut ProvenanceRewriter<'_>,
    input_plus: Plan,
    infos: &[SublinkInfo],
    project_values: bool,
) -> Attached {
    let (mut plan, values) = if project_values {
        let (plan, values) = project_sublink_values(rw, input_plus, infos);
        (plan, Some(values))
    } else {
        (input_plus, None)
    };
    for (i, info) in infos.iter().enumerate() {
        let (wrapped, result_alias) = wrap_sublink_plus(rw, info);
        let csub = match &values {
            Some(values) => col(values[i]),
            None => info.original.clone(),
        };
        plan = Plan::Join {
            left: PlanRef::new(plan),
            right: PlanRef::new(wrapped),
            kind: JoinKind::LeftOuter,
            condition: jsub_condition(info, csub, col(result_alias)),
        };
    }
    Attached {
        plan,
        values,
        membership: Vec::new(),
    }
}

/// Builds the inner projection `Π_{T, P(T+), Csub1→C1, …, Csubm→Cm}(T+)`:
/// the rewritten input with one extra boolean/scalar attribute per sublink
/// holding the (single) evaluation of that sublink.
fn project_sublink_values(
    rw: &mut ProvenanceRewriter<'_>,
    input_plus: Plan,
    infos: &[SublinkInfo],
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
/// rewriter meets the sublinks in `collect_sublinks` order.
pub(crate) fn with_values<'n>(expr: &Expr, values: &mut impl Iterator<Item = &'n Name>) -> Expr {
    expr.rewrite(&mut |e| match e {
        Expr::Sublink { .. } => values.next().map(|name| col(*name)),
        _ => None,
    })
    .unwrap_or_else(|| expr.clone())
}
