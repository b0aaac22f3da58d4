//! The **Unn** rewrite strategy (rules U1 and U2 of Figure 5).
//!
//! Unn applies classic un-nesting to two specific sublink shapes and turns
//! the provenance computation into plain joins, for which the standard
//! rewrite rules are very efficient:
//!
//! * **U1** — a selection whose condition is exactly `EXISTS (Tsub)` with an
//!   uncorrelated `Tsub`: the provenance of an `EXISTS` sublink is all of
//!   `Tsub`, and the condition only filters when `Tsub` is empty, so
//!   `(σ_EXISTS Tsub(T))+ = T+ × Tsub+`.
//! * **U2** — a selection whose condition is exactly `x = ANY (Tsub)` with an
//!   uncorrelated `Tsub`: the sublink is always `reqtrue`, its provenance is
//!   `Tsub_true`, and the whole construct becomes an equi-join
//!   `(σ_{x = ANY(Tsub)}(T))+ = T+ ⋈_{x = res} Tsub+`.

use super::common::{wrap_sublink_plus, SublinkInfo};
use super::{Attached, ProvenanceRewriter};
use perm_algebra::builder::{col, eq};
use perm_algebra::{CompareOp, Expr, JoinKind, Plan, PlanRef, SublinkKind};

/// `true` when the Unn strategy has a rule for this selection predicate: the
/// predicate must be exactly one `EXISTS` sublink or exactly one equality
/// `ANY` sublink (rules U1 and U2). Correlation is checked separately during
/// the rewrite.
pub(crate) fn is_applicable_select(predicate: &Expr) -> bool {
    matches!(
        predicate,
        Expr::Sublink {
            kind: SublinkKind::Exists,
            ..
        } | Expr::Sublink {
            kind: SublinkKind::Any,
            op: Some(CompareOp::Eq),
            ..
        }
    )
}

/// `T+ × Tsub+` (U1) or `T+ ⋈_{x = res} Tsub+` (U2) for the one sublink of
/// a predicate [`is_applicable_select`] admits; the join is the selection.
pub(crate) fn attach(
    rw: &mut ProvenanceRewriter<'_>,
    input_plus: Plan,
    infos: &[SublinkInfo],
) -> Attached {
    let info = &infos[0];
    let (wrapped, result_alias) = wrap_sublink_plus(rw, info);
    let plan = match info.kind {
        // U1: the EXISTS condition only removes tuples when Tsub is empty, in
        // which case the cross product is empty as well.
        SublinkKind::Exists => Plan::CrossProduct {
            left: PlanRef::new(input_plus),
            right: PlanRef::new(wrapped),
        },
        // U2: the sublink is reqtrue, its provenance is Tsub_true — exactly
        // the tuples produced by the equi-join on the comparison condition.
        SublinkKind::Any => {
            let test = info
                .test_expr
                .clone()
                .expect("ANY sublink carries a test expression");
            Plan::Join {
                left: PlanRef::new(input_plus),
                right: PlanRef::new(wrapped),
                kind: JoinKind::Inner,
                condition: eq(test, col(result_alias)),
            }
        }
        _ => unreachable!("is_applicable_select only admits EXISTS and ANY"),
    };
    Attached {
        plan,
        values: None,
        membership: Vec::new(),
    }
}
