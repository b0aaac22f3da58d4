//! Provenance query rewriting: the standard Perm rules (R1–R5) and the
//! sublink strategies Gen, Left, Move and Unn of Figure 5.
//!
//! A query plan `q` is rewritten into a plan `q+` whose schema is the schema
//! of `q` followed by one group of provenance attributes `P(R)` per base
//! relation access. Executing `q+` yields every original result tuple paired
//! with the tuples that contribute to it (duplicated when more than one
//! combination of input tuples contributes).
//!
//! [`ProvenanceQuery`] is the one entry point. The rewriter hands an
//! operator without sublinks of its own to the standard rules (`standard`),
//! and a σ or Π whose own expressions hold sublinks, as a `SublinkOp`, to
//! one function. That function resolves the strategy (`Auto` included),
//! rewrites the input to `T⁺`, rewrites the sublinks, lets the strategy
//! attach their provenance, and puts the operator back on top: the σ and
//! the columns to keep, or the Π over its items and the provenance
//! attributes. An inner join whose condition holds a sublink goes there as
//! the σ of `σ_θ(L × R)`. Where each rule of Figure 5 attaches:
//!
//! | rules | module | attachment |
//! |---|---|---|
//! | G1, G2 | `gen` | `T⁺ × CrossBase(Tsub)`, filtered by `Csub⁺` |
//! | L1, L2 | `left_move` | `T⁺ ⟕_{Jsub} Tsub⁺` |
//! | T1, T2 | `left_move` | the same over `Π_{T⁺, Csub→Cᵢ}(T⁺)` |
//! | U1, U2 | `unn` | `T⁺ × Tsub⁺` or `T⁺ ⋈ Tsub⁺`, which is the selection |
//!
//! `common` holds what the strategies share: collecting and rewriting the
//! sublinks, `CrossBase`, `Jsub` and `Csub⁺`.

mod common;
mod gen;
mod left_move;
mod standard;
mod unn;

use crate::provschema::ProvenanceDescriptor;
use crate::{ProvenanceError, Result};
use perm_algebra::builder::conjunction;
use perm_algebra::{Expr, JoinKind, Plan, PlanRef, ProjectItem};
use perm_storage::{Database, Name, Schema};
use std::collections::HashMap;

/// The rewrite strategy used for operators that contain sublinks.
///
/// * [`Strategy::Gen`] is applicable to every sublink (correlated, nested,
///   multiple sublinks per operator) but joins against the cross product of
///   all base relations of the sublink query (`CrossBase`), which is
///   expensive.
/// * [`Strategy::Left`] joins the rewritten sublink query with a left outer
///   join; only applicable to uncorrelated sublinks.
/// * [`Strategy::Move`] is the Left variant that evaluates each sublink once
///   in a projection before the join, so the sublink is not duplicated in the
///   join condition; only applicable to uncorrelated sublinks.
/// * [`Strategy::Unn`] un-nests specific sublink shapes (`EXISTS` and
///   equality-`ANY` selections) into plain joins; fastest but most
///   restricted.
/// * [`Strategy::Auto`] picks, per operator, the most specific strategy that
///   applies (Unn, then Move, then Gen), mimicking what a production system
///   would do.
// `Hash` so a strategy can participate in cache keys (the engine's
// cross-session plan cache fingerprints its `SessionConfig` with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    Gen,
    Left,
    Move,
    Unn,
    Auto,
}

impl Strategy {
    /// All concrete strategies (without `Auto`), in the order the paper
    /// presents them.
    pub const ALL: [Strategy; 4] = [Strategy::Gen, Strategy::Left, Strategy::Move, Strategy::Unn];

    /// Short name used in benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Gen => "Gen",
            Strategy::Left => "Left",
            Strategy::Move => "Move",
            Strategy::Unn => "Unn",
            Strategy::Auto => "Auto",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The result of rewriting a plan: the provenance-propagating plan and the
/// description of the provenance attributes it appends.
#[derive(Debug, Clone)]
pub struct RewriteResult {
    /// The rewritten plan `q+`.
    pub plan: Plan,
    /// The provenance attributes `P(q+)` appended after the original schema.
    pub descriptor: ProvenanceDescriptor,
}

impl RewriteResult {
    /// The rewritten plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The provenance descriptor.
    pub fn descriptor(&self) -> &ProvenanceDescriptor {
        &self.descriptor
    }

    /// The schema of the original query (the rewritten schema minus the
    /// provenance attributes).
    pub fn original_schema(&self) -> Schema {
        let full = self.plan.schema();
        let original_arity = full.arity() - self.descriptor.attr_count();
        Schema::new(full.attributes()[..original_arity].to_vec())
    }
}

/// Rewrites plans into provenance-propagating plans; [`ProvenanceQuery`] is
/// its entry point.
pub(crate) struct ProvenanceRewriter<'a> {
    db: &'a Database,
    strategy: Strategy,
    occurrences: HashMap<String, usize>,
    fresh_counter: usize,
}

/// An operator whose own expressions hold sublinks: the σ of rules G1, L1,
/// T1 and U1–U2, or the Π of rules G2, L2 and T2.
#[derive(Clone, Copy)]
enum SublinkOp<'p> {
    Select(&'p Expr),
    Project {
        items: &'p [ProjectItem],
        distinct: bool,
    },
}

impl<'p> SublinkOp<'p> {
    /// The operator's own expressions: the predicate, or each item's.
    fn exprs(self) -> impl Iterator<Item = &'p Expr> {
        let (predicate, items) = match self {
            SublinkOp::Select(predicate) => (Some(predicate), &[][..]),
            SublinkOp::Project { items, .. } => (None, items),
        };
        predicate.into_iter().chain(items.iter().map(|i| &i.expr))
    }
}

/// `T⁺` with the provenance of an operator's sublinks attached by one
/// strategy, and what the operator put back on top must read of it.
pub(crate) struct Attached {
    /// `T⁺` joined with the provenance of every sublink.
    pub plan: Plan,
    /// Move: the attribute `C_i` holding each sublink's value, in
    /// [`common::collect_sublinks`] order; it stands for the sublink in the
    /// operator's expressions. `None` keeps the sublinks as written.
    pub values: Option<Vec<Name>>,
    /// Gen: the membership conditions `Csub⁺`, one per sublink, which a σ
    /// on top checks.
    pub membership: Vec<Expr>,
}

impl<'a> ProvenanceRewriter<'a> {
    /// Creates a rewriter using `strategy` for sublink operators.
    pub(crate) fn new(db: &'a Database, strategy: Strategy) -> ProvenanceRewriter<'a> {
        ProvenanceRewriter {
            db,
            strategy,
            occurrences: HashMap::new(),
            fresh_counter: 0,
        }
    }

    /// The database the rewriter resolves base relations against.
    pub(crate) fn database(&self) -> &Database {
        self.db
    }

    /// Rewrites a complete query plan.
    pub(crate) fn rewrite_query(&mut self, plan: &Plan) -> Result<RewriteResult> {
        plan.validate()
            .map_err(|e| ProvenanceError::Algebra(e.to_string()))?;
        self.rewrite(plan)
    }

    /// Recursive rewrite entry point used by the rule modules.
    pub(crate) fn rewrite(&mut self, plan: &Plan) -> Result<RewriteResult> {
        match plan {
            Plan::Select { input, predicate } if predicate.has_sublink() => {
                self.rewrite_sublink_op(input, SublinkOp::Select(predicate))
            }
            Plan::Project {
                input,
                items,
                distinct,
            } if items.iter().any(|i| i.expr.has_sublink()) => self.rewrite_sublink_op(
                input,
                SublinkOp::Project {
                    items,
                    distinct: *distinct,
                },
            ),
            // `L ⋈_θ R` is `σ_θ(L × R)`: θ goes to the σ rules as written.
            Plan::Join {
                left,
                right,
                kind: JoinKind::Inner,
                condition,
            } if condition.has_sublink() => {
                let product = Plan::CrossProduct {
                    left: left.clone(),
                    right: right.clone(),
                };
                self.rewrite_sublink_op(&product, SublinkOp::Select(condition))
            }
            Plan::Join {
                kind, condition, ..
            } if condition.has_sublink() => Err(ProvenanceError::Unsupported(format!(
                "sublinks in the condition of a {kind:?} join are not supported; only an \
                 Inner join's condition is rewritten, as a selection over the product"
            ))),
            Plan::Aggregate { .. } if plan.has_direct_sublink() => {
                Err(ProvenanceError::Unsupported(
                    "sublinks inside aggregate arguments or grouping expressions are not \
                     supported; compute them in a projection below the aggregation"
                        .into(),
                ))
            }
            other => standard::rewrite_standard(self, other),
        }
    }

    /// Rewrites a σ or Π with sublinks: the strategy attaches each
    /// sublink's provenance to the rewritten input `T⁺`, and the operator is
    /// put back on top, reading the sublinks (Move: their values).
    fn rewrite_sublink_op(&mut self, input: &Plan, op: SublinkOp<'_>) -> Result<RewriteResult> {
        let strategy = self.resolve(op)?;
        let input_rw = self.rewrite(input)?;
        let infos = common::collect_sublinks(self, op.exprs())?;
        if strategy != Strategy::Gen {
            common::require_join_rewritable(strategy.name(), &infos)?;
        }
        let input_plus_schema = input_rw.plan.schema();
        let descriptor = infos
            .iter()
            .fold(input_rw.descriptor, |d, info| d.concat(info.descriptor()));
        let Attached {
            plan,
            values,
            membership,
        } = match strategy {
            Strategy::Gen => gen::attach(self, input_rw.plan, &infos)?,
            Strategy::Left => left_move::attach(self, input_rw.plan, &infos, false),
            Strategy::Move => left_move::attach(self, input_rw.plan, &infos, true),
            Strategy::Unn => unn::attach(self, input_rw.plan, &infos),
            Strategy::Auto => unreachable!("resolve picks a concrete strategy"),
        };
        let mut values = values.as_deref().map(<[Name]>::iter);
        let plan = match op {
            SublinkOp::Select(predicate) => {
                // The join of U1 / U2 is the condition itself.
                let plan = if strategy == Strategy::Unn {
                    plan
                } else {
                    let condition = match values.as_mut() {
                        Some(values) => left_move::with_values(predicate, values),
                        None => predicate.clone(),
                    };
                    Plan::Select {
                        input: PlanRef::new(plan),
                        predicate: conjunction(std::iter::once(condition).chain(membership)),
                    }
                };
                // Gen's `CrossBase` holds provenance attributes only; the
                // join strategies drop the sublink results they joined on.
                if strategy == Strategy::Gen {
                    plan
                } else {
                    let kept = common::output_columns(&input_plus_schema, &infos);
                    common::keep_columns(plan, &kept)
                }
            }
            SublinkOp::Project { items, distinct } => {
                let plan = if membership.is_empty() {
                    plan
                } else {
                    Plan::Select {
                        input: PlanRef::new(plan),
                        predicate: conjunction(membership),
                    }
                };
                let mut out_items: Vec<ProjectItem> = match values.as_mut() {
                    Some(values) => items
                        .iter()
                        .map(|i| ProjectItem {
                            expr: left_move::with_values(&i.expr, values),
                            alias: i.alias,
                            qualifier: i.qualifier,
                        })
                        .collect(),
                    None => items.to_vec(),
                };
                out_items.extend(descriptor.attr_names().into_iter().map(ProjectItem::column));
                Plan::Project {
                    input: PlanRef::new(plan),
                    items: out_items,
                    distinct,
                }
            }
        };
        Ok(RewriteResult { plan, descriptor })
    }

    /// The concrete strategy for `op`: `Auto` picks Unn where U1 / U2
    /// apply, else Move where every sublink is [`join_rewritable`], else
    /// Gen. Unn fails here on an operator it has no rule for; Left, Move and
    /// Unn fail on a sublink they cannot join once the sublinks are
    /// collected.
    fn resolve(&self, op: SublinkOp<'_>) -> Result<Strategy> {
        let unn_rule = matches!(op, SublinkOp::Select(p) if unn::is_applicable_select(p));
        match self.strategy {
            Strategy::Auto if !op.exprs().all(join_rewritable) => Ok(Strategy::Gen),
            Strategy::Auto if unn_rule => Ok(Strategy::Unn),
            Strategy::Auto => Ok(Strategy::Move),
            Strategy::Unn if !unn_rule => Err(ProvenanceError::NotApplicable {
                strategy: "Unn",
                reason: match op {
                    SublinkOp::Select(_) => {
                        "the selection condition is not a single EXISTS sublink or a single \
                         equality ANY sublink (rules U1/U2)"
                    }
                    SublinkOp::Project { .. } => {
                        "the Unn strategy only rewrites selections (rules U1 and U2)"
                    }
                }
                .into(),
            }),
            strategy => Ok(strategy),
        }
    }

    /// Allocates the next occurrence index for a base relation access.
    pub(crate) fn next_occurrence(&mut self, table: &str) -> usize {
        let counter = self
            .occurrences
            .entry(table.to_ascii_lowercase())
            .or_insert(0);
        let occurrence = *counter;
        *counter += 1;
        occurrence
    }

    /// Generates a fresh, unique attribute name with the given prefix.
    pub(crate) fn fresh(&mut self, prefix: impl std::fmt::Display) -> Name {
        let name = format!("{prefix}_{}", self.fresh_counter);
        self.fresh_counter += 1;
        name.into()
    }
}

/// `true` when the join-based strategies (Left, Move, Unn) apply to every
/// sublink of `expr`: none is correlated, and none holds another sublink in
/// its test expression. A nested sublink of the test expression is one of
/// the condition's sublinks and contributes witnesses of its own
/// (Definition 2); their rules join each sublink's `Tsub⁺` on its result
/// alone and have no place for it, so such an operator falls to Gen.
pub(crate) fn join_rewritable(expr: &Expr) -> bool {
    expr.sublinks().iter().all(|s| match s {
        Expr::Sublink {
            test_expr, plan, ..
        } => plan.free_columns().is_empty() && !test_expr.as_deref().is_some_and(Expr::has_sublink),
        _ => true,
    })
}

/// High-level API: "compute the provenance of this query".
///
/// Mirrors the `SELECT PROVENANCE` language extension of the Perm system: the
/// caller supplies an ordinary query plan and receives the rewritten plan
/// that propagates provenance, ready to be executed, stored as a view or used
/// as a subquery.
pub struct ProvenanceQuery<'a> {
    db: &'a Database,
    plan: &'a Plan,
    strategy: Strategy,
}

impl<'a> ProvenanceQuery<'a> {
    /// Creates a provenance query for `plan` over `db` using the default
    /// [`Strategy::Auto`].
    pub fn new(db: &'a Database, plan: &'a Plan) -> ProvenanceQuery<'a> {
        ProvenanceQuery {
            db,
            plan,
            strategy: Strategy::Auto,
        }
    }

    /// Selects a rewrite strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Rewrites the query into its provenance-propagating form.
    pub fn rewrite(self) -> Result<RewriteResult> {
        ProvenanceRewriter::new(self.db, self.strategy).rewrite_query(self.plan)
    }

    /// Lists which concrete strategies are applicable to this query (i.e.
    /// rewrite without error) — the per-strategy series of Figures 6–9.
    pub fn applicable_strategies(&self) -> Vec<Strategy> {
        Strategy::ALL
            .iter()
            .copied()
            .filter(|s| {
                ProvenanceRewriter::new(self.db, *s)
                    .rewrite_query(self.plan)
                    .is_ok()
            })
            .collect()
    }
}
