//! Provenance query rewriting: the standard Perm rules (R1–R5) and the
//! sublink strategies Gen, Left, Move and Unn of Figure 5.
//!
//! A query plan `q` is rewritten into a plan `q+` whose schema is the schema
//! of `q` followed by one group of provenance attributes `P(R)` per base
//! relation access. Executing `q+` yields every original result tuple paired
//! with the tuples that contribute to it (duplicated when more than one
//! combination of input tuples contributes).

mod common;
mod gen;
mod left;
mod move_;
mod standard;
mod unn;

pub(crate) use common::SublinkInfo;

use crate::provschema::ProvenanceDescriptor;
use crate::{ProvenanceError, Result};
use perm_algebra::{Expr, Plan};
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

/// Rewrites plans into provenance-propagating plans.
pub struct ProvenanceRewriter<'a> {
    db: &'a Database,
    strategy: Strategy,
    occurrences: HashMap<String, usize>,
    fresh_counter: usize,
}

impl<'a> ProvenanceRewriter<'a> {
    /// Creates a rewriter using `strategy` for sublink operators.
    pub fn new(db: &'a Database, strategy: Strategy) -> ProvenanceRewriter<'a> {
        ProvenanceRewriter {
            db,
            strategy,
            occurrences: HashMap::new(),
            fresh_counter: 0,
        }
    }

    /// The database the rewriter resolves base relations against.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Rewrites a complete query plan.
    pub fn rewrite_query(&mut self, plan: &Plan) -> Result<RewriteResult> {
        plan.validate()
            .map_err(|e| ProvenanceError::Algebra(e.to_string()))?;
        self.rewrite(plan)
    }

    /// Recursive rewrite entry point used by the rule modules.
    pub(crate) fn rewrite(&mut self, plan: &Plan) -> Result<RewriteResult> {
        match plan {
            Plan::Select { input, predicate } if predicate.has_sublink() => {
                self.rewrite_sublink_select(input, predicate)
            }
            Plan::Project {
                input,
                items,
                distinct,
            } if items.iter().any(|i| i.expr.has_sublink()) => {
                self.rewrite_sublink_project(input, items, *distinct)
            }
            Plan::Join { condition, .. } if condition.has_sublink() => {
                Err(ProvenanceError::Unsupported(
                    "sublinks in join conditions are not supported; move the sublink into a \
                     selection above the join"
                        .into(),
                ))
            }
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

    fn rewrite_sublink_select(&mut self, input: &Plan, predicate: &Expr) -> Result<RewriteResult> {
        match self.strategy {
            Strategy::Gen => gen::rewrite_select(self, input, predicate),
            Strategy::Left => left::rewrite_select(self, input, predicate),
            Strategy::Move => move_::rewrite_select(self, input, predicate),
            Strategy::Unn => unn::rewrite_select(self, input, predicate),
            Strategy::Auto => {
                if unn::is_applicable_select(predicate) && join_rewritable(predicate) {
                    unn::rewrite_select(self, input, predicate)
                } else if join_rewritable(predicate) {
                    move_::rewrite_select(self, input, predicate)
                } else {
                    gen::rewrite_select(self, input, predicate)
                }
            }
        }
    }

    fn rewrite_sublink_project(
        &mut self,
        input: &Plan,
        items: &[perm_algebra::ProjectItem],
        distinct: bool,
    ) -> Result<RewriteResult> {
        match self.strategy {
            Strategy::Gen => gen::rewrite_project(self, input, items, distinct),
            Strategy::Left => left::rewrite_project(self, input, items, distinct),
            Strategy::Move => move_::rewrite_project(self, input, items, distinct),
            Strategy::Unn => Err(ProvenanceError::NotApplicable {
                strategy: "Unn",
                reason: "the Unn strategy only rewrites selections (rules U1 and U2)".into(),
            }),
            Strategy::Auto => {
                if items.iter().all(|i| join_rewritable(&i.expr)) {
                    move_::rewrite_project(self, input, items, distinct)
                } else {
                    gen::rewrite_project(self, input, items, distinct)
                }
            }
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

/// Convenience error constructor used by Left/Move/Unn when a correlated
/// sublink is encountered.
pub(crate) fn not_applicable(strategy: &'static str, reason: impl Into<String>) -> ProvenanceError {
    ProvenanceError::NotApplicable {
        strategy,
        reason: reason.into(),
    }
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
