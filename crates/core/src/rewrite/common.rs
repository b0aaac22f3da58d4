//! Shared building blocks of the sublink rewrite strategies: sublink
//! analysis, the `CrossBase` relation of the Gen strategy, the join
//! conditions `Jsub`, and the renamed wrappers around rewritten sublink
//! queries used by the join-based strategies.

use super::{ProvenanceRewriter, RewriteResult};
use crate::provschema::ProvenanceDescriptor;
use crate::{ProvenanceError, Result};
use perm_algebra::builder::{col, conjunction, lit, not, null, null_safe_eq, or, PlanBuilder};
use perm_algebra::{CompareOp, Expr, Plan, PlanRef, ProjectItem, SetOpKind, SublinkKind};
use perm_storage::{Name, Schema, Tuple, Value};

/// Everything the strategies need to know about one sublink of an operator.
#[derive(Debug, Clone)]
pub(crate) struct SublinkInfo {
    /// The sublink kind (`ANY`, `ALL`, `EXISTS`, scalar).
    pub kind: SublinkKind,
    /// The test expression `A` of `A op ANY/ALL (Tsub)`.
    pub test_expr: Option<Expr>,
    /// The comparison operator of `A op ANY/ALL (Tsub)`.
    pub op: Option<CompareOp>,
    /// The original sublink expression `Csub` (kept verbatim inside the
    /// rewritten conditions of the Gen and Left strategies).
    pub original: Expr,
    /// The original sublink query `Tsub`, shared with `original`.
    pub plan: PlanRef,
    /// The rewritten sublink query `Tsub+` with its provenance descriptor.
    pub rewritten: RewriteResult,
    /// Names of the ordinary (non-provenance) result attributes of `Tsub`.
    pub result_attrs: Vec<Name>,
}

impl SublinkInfo {
    /// The provenance attributes contributed by this sublink.
    pub fn descriptor(&self) -> &ProvenanceDescriptor {
        &self.rewritten.descriptor
    }
}

/// Collects and rewrites every sublink of the given expressions in
/// [`Expr::sublinks`] order — the order the reference tracer numbers their
/// witness columns in — those nested in another sublink's test expression
/// included.
pub(crate) fn collect_sublinks<'e>(
    rw: &mut ProvenanceRewriter<'_>,
    exprs: impl IntoIterator<Item = &'e Expr>,
) -> Result<Vec<SublinkInfo>> {
    let mut infos = Vec::new();
    for expr in exprs {
        for sublink in expr.sublinks() {
            if let Expr::Sublink {
                kind,
                test_expr,
                op,
                plan,
            } = sublink
            {
                let rewritten = rw.rewrite(plan)?;
                let original_schema = plan.schema();
                infos.push(SublinkInfo {
                    kind: *kind,
                    test_expr: test_expr.as_deref().cloned(),
                    op: *op,
                    original: sublink.clone(),
                    plan: plan.clone(),
                    rewritten,
                    result_attrs: original_schema.names(),
                });
            }
        }
    }
    Ok(infos)
}

/// Fails with [`ProvenanceError::NotApplicable`] unless the join-based
/// strategies can rewrite every sublink ([`super::join_rewritable`]); the
/// Left, Move and Unn strategies check this before they attach anything.
pub(crate) fn require_join_rewritable(strategy: &'static str, infos: &[SublinkInfo]) -> Result<()> {
    match infos.iter().find(|i| !super::join_rewritable(&i.original)) {
        None => Ok(()),
        Some(info) => Err(ProvenanceError::NotApplicable {
            strategy,
            reason: format!(
                "the {} sublink over `{}` is correlated or holds a sublink in its test \
                 expression; only the Gen strategy rewrites those",
                info.kind,
                info.result_attrs.join(", ")
            ),
        }),
    }
}

/// Builds `CrossBase(Tsub)`: the cross product, over every base relation `R`
/// accessed by the sublink query, of `Π_{R→P(R)}(R ∪ null(R))` — i.e. all
/// theoretically possible provenance tuples of the sublink, each base
/// relation extended by an all-NULL tuple (Section 3.3).
///
/// The provenance attribute names are taken from the descriptor of `Tsub+` so
/// that the null-safe comparison inside `Csub+` lines up exactly.
pub(crate) fn cross_base(
    rw: &ProvenanceRewriter<'_>,
    descriptor: &ProvenanceDescriptor,
) -> Result<Plan> {
    let mut factors: Vec<Plan> = Vec::with_capacity(descriptor.len());
    for entry in descriptor.entries() {
        let base_schema = rw.database().table_schema(&entry.table)?.clone();
        let qualified = base_schema.with_qualifier(entry.table.as_str());
        let scan = Plan::Scan {
            table: entry.table.clone(),
            alias: None,
            schema: qualified.clone(),
        };
        let null_row = Plan::Values {
            schema: qualified.clone(),
            rows: vec![Tuple::new(vec![Value::Null; qualified.arity()])],
        };
        let extended = PlanBuilder::from_plan(scan)
            .set_op(SetOpKind::Union, true, null_row)
            .build();
        // Rename every attribute to its provenance name for this occurrence.
        let items: Vec<ProjectItem> = qualified
            .attributes()
            .iter()
            .zip(entry.prov_schema.attributes())
            .map(|(orig, prov)| ProjectItem::new(col(orig.name), prov.name))
            .collect();
        factors.push(PlanBuilder::from_plan(extended).project(items).build());
    }
    let mut iter = factors.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| ProvenanceError::Unsupported("sublink accesses no base relation".into()))?;
    Ok(iter.fold(first, |acc, f| Plan::CrossProduct {
        left: PlanRef::new(acc),
        right: PlanRef::new(f),
    }))
}

/// Projection items renaming the ordinary result attributes of `Tsub+` to
/// fresh `{prefix}_{name}` names, and the fresh name of the first one.
fn fresh_results(
    rw: &mut ProvenanceRewriter<'_>,
    info: &SublinkInfo,
    prefix: &str,
) -> (Vec<ProjectItem>, Name) {
    let items: Vec<ProjectItem> = info
        .result_attrs
        .iter()
        .map(|name| ProjectItem::new(col(*name), rw.fresh(format_args!("{prefix}_{name}"))))
        .collect();
    let first = items.first().map_or_else(Name::default, |i| i.alias);
    (items, first)
}

/// Wraps `Tsub+` in a projection that renames the ordinary result attributes
/// to fresh names (avoiding capture of attributes of the outer query) while
/// keeping the provenance attributes under their provenance names. Returns
/// the wrapped plan and the fresh name of the first result attribute (the one
/// `ANY`/`ALL` comparisons test against).
pub(crate) fn wrap_sublink_plus(
    rw: &mut ProvenanceRewriter<'_>,
    info: &SublinkInfo,
) -> (Plan, Name) {
    let (mut items, first_result_alias) = fresh_results(rw, info, "sub_res");
    for prov in info.descriptor().attr_names() {
        items.push(ProjectItem::column(prov));
    }
    let plan = PlanBuilder::from_plan(info.rewritten.plan.clone())
        .project(items)
        .build();
    (plan, first_result_alias)
}

/// Builds the join/filter condition `Jsub` for one sublink (Section 3.3):
///
/// * `ANY`:  `C'sub ∨ ¬Csub`
/// * `ALL`:  `Csub ∨ ¬C'sub`
/// * `EXISTS` / scalar: `true`
///
/// where `C'sub = A op result` compares the outer test expression against the
/// sublink result attribute (under the name `result_ref`) and `csub` is the
/// expression that stands for the original sublink result (the sublink itself
/// for Gen/Left, the projected attribute `C_i` for Move).
pub(crate) fn jsub_condition(info: &SublinkInfo, csub: Expr, result_ref: Expr) -> Expr {
    match info.kind {
        SublinkKind::Exists | SublinkKind::Scalar => lit(true),
        SublinkKind::Any | SublinkKind::All => {
            let test = info
                .test_expr
                .clone()
                .expect("ANY/ALL sublinks carry a test expression");
            let op = info.op.expect("ANY/ALL sublinks carry a comparison");
            let c_prime = Expr::Binary {
                op: perm_algebra::BinaryOp::Cmp(op),
                left: Box::new(test),
                right: Box::new(result_ref),
            };
            if info.kind == SublinkKind::Any {
                or(c_prime, not(csub))
            } else {
                or(csub, not(c_prime))
            }
        }
    }
}

/// Builds the `Csub+` condition of the Gen strategy for one sublink:
///
/// ```text
/// Csub+ = EXISTS (σ_{Jsub ∧ P(Tsub+) =n Tsub'}(Π_{result, P(Tsub+)→Tsub'}(Tsub+)))
///         ∨ (¬EXISTS(Tsub) ∧ P(Tsub+) =n null)
/// ```
///
/// The first disjunct checks that a `CrossBase` tuple (referenced from the
/// enclosing scope by its provenance attribute names) actually belongs to the
/// provenance of the sublink; the second handles the empty-sublink case by
/// accepting the all-NULL padding tuple.
pub(crate) fn gen_csub_plus(rw: &mut ProvenanceRewriter<'_>, info: &SublinkInfo) -> Expr {
    // Inner projection: ordinary result attributes under fresh names (so the
    // outer test expression cannot be captured), provenance attributes under
    // fresh "check" names (so the comparison against the CrossBase attributes
    // of the enclosing scope is unambiguous).
    let (mut items, first_result_alias) = fresh_results(rw, info, "gen_res");
    let prov_names = info.descriptor().attr_names();
    let check_names: Vec<Name> = prov_names
        .iter()
        .map(|p| rw.fresh(format_args!("{p}_chk")))
        .collect();
    for (prov, check) in prov_names.iter().zip(check_names.iter()) {
        items.push(ProjectItem::new(col(*prov), *check));
    }
    let projected = PlanBuilder::from_plan(info.rewritten.plan.clone())
        .project(items)
        .build();

    let jsub = jsub_condition(info, info.original.clone(), col(first_result_alias));
    let prov_match = conjunction(
        prov_names
            .iter()
            .zip(check_names.iter())
            .map(|(prov, check)| null_safe_eq(col(*prov), col(*check))),
    );
    let membership = PlanBuilder::from_plan(projected)
        .select(perm_algebra::builder::and(jsub, prov_match))
        .build();
    let exists_member = perm_algebra::builder::exists_sublink(membership);

    let empty_case = perm_algebra::builder::and(
        not(perm_algebra::builder::exists_sublink(info.plan.clone())),
        conjunction(prov_names.iter().map(|p| null_safe_eq(col(*p), null()))),
    );

    or(exists_member, empty_case)
}

/// Final projection helper: keeps the given attributes (in order) from the
/// current plan, dropping everything else (fresh helper attributes, sublink
/// result attributes, …). Qualifiers of kept attributes are preserved so that
/// qualified references from enclosing scopes keep resolving.
pub(crate) fn keep_columns(plan: Plan, attrs: &[perm_storage::Attribute]) -> Plan {
    let items: Vec<ProjectItem> = attrs.iter().map(ProjectItem::passthrough).collect();
    PlanBuilder::from_plan(plan).project(items).build()
}

/// The attributes the final projection of a sublink rewrite keeps: the schema
/// of the operator's rewritten input (original attributes plus `P(T+)`),
/// followed by the provenance attributes of every sublink.
pub(crate) fn output_columns(
    input_plus_schema: &Schema,
    infos: &[SublinkInfo],
) -> Vec<perm_storage::Attribute> {
    let mut attrs = input_plus_schema.attributes().to_vec();
    for info in infos {
        attrs.extend_from_slice(info.descriptor().schema().attributes());
    }
    attrs
}
