//! The **Gen** rewrite strategy (rules G1 and G2 of Figure 5).
//!
//! Gen is the only strategy applicable to *every* sublink: correlated,
//! nested, and in arbitrary numbers. It joins the rewritten input with the
//! `CrossBase` of every sublink (the cross product of the sublink's base
//! relations, each extended by an all-NULL tuple) and filters the cross
//! product with the `Csub+` membership condition, which checks that a
//! `CrossBase` tuple really belongs to the provenance of the sublink under
//! the extended contribution definition (Definition 2).
//!
//! * G1: `(σ_C(T))+ = σ_{C ∧ Csub1+ ∧ … ∧ Csubn+}(T+ × CrossBase(Tsub1) × … × CrossBase(Tsubn))`
//! * G2: the paper states
//!   `(Π_A(T))+ = σ_{Csub1+ ∧ …}(Π_{A,P(T+)}(T+) × CrossBase(Tsub1) × …)`.
//!   We apply the provenance filter *below* the projection
//!   (`Π_{A,P(T+),P(CrossBase…)}(σ_{Csub1+ ∧ …}(T+ × CrossBase(Tsub1) × …))`),
//!   which is equivalent but keeps the original input attributes in scope
//!   for the membership conditions: the `Csub+` conditions reference the
//!   outer test expressions and the correlated attributes of `Tsub`, which a
//!   projection may have projected away. Evaluating `Csub+` per *input*
//!   tuple is also exactly what Sections 2.4 and 2.6 require for sublinks in
//!   projections (provenance per contributing input tuple, union over input
//!   tuples).

use super::common::{cross_base, gen_csub_plus, SublinkInfo};
use super::{Attached, ProvenanceRewriter};
use crate::Result;
use perm_algebra::{Plan, PlanRef};

/// `T+ × CrossBase(Tsub1) × … × CrossBase(Tsubn)`, with the membership
/// conditions `Csub1+, …, Csubn+` the σ of G1 or G2 checks on top of it.
pub(crate) fn attach(
    rw: &mut ProvenanceRewriter<'_>,
    input_plus: Plan,
    infos: &[SublinkInfo],
) -> Result<Attached> {
    let mut plan = input_plus;
    for info in infos {
        plan = Plan::CrossProduct {
            left: PlanRef::new(plan),
            right: PlanRef::new(cross_base(rw, info.descriptor())?),
        };
    }
    let membership = infos.iter().map(|info| gen_csub_plus(rw, info)).collect();
    Ok(Attached {
        plan,
        values: None,
        membership,
    })
}
