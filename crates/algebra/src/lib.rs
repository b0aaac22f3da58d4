//! # perm-algebra
//!
//! The relational algebra extended with sublinks used throughout the paper
//! (Figure 1). A query is represented as a tree of [`Plan`] operators whose
//! conditions and projection lists are [`Expr`] trees. Sublinks (`ANY`,
//! `ALL`, `EXISTS` and scalar subqueries) are expressions that embed a whole
//! [`Plan`], possibly referencing attributes of the enclosing query
//! (correlation) or of further enclosing sublinks (nesting).
//!
//! The provenance rewrite rules of `perm-core` are plan-to-plan
//! transformations over this IR; `perm-exec` evaluates it; `perm-sql`
//! produces it from SQL text.
//!
//! Every identifier in the IR — column references, projection and aggregate
//! aliases, output qualifiers, the free-column lists of [`visit`] — is a
//! [`perm_storage::Name`], an interned `Copy` handle: copying one copies no
//! text and bumps no reference count.

#![forbid(unsafe_code)]

pub mod builder;
pub mod display;
pub mod expr;
pub mod optimize;
pub mod plan;
pub mod visit;

pub use builder::{
    agg, and, avg, col, count, count_star, lit, max, min, not, or, qcol, sum, PlanBuilder,
};
pub use expr::{AggFunc, AggregateExpr, BinaryOp, CompareOp, Expr, FuncName, SublinkKind, UnaryOp};
pub use plan::{JoinKind, Plan, PlanRef, ProjectItem, SetOpKind, SortKey};
pub use visit::Scopes;

/// Errors raised while constructing, analyzing or rewriting plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlgebraError {
    /// Underlying storage/schema error (unknown attribute, …).
    Storage(perm_storage::StorageError),
    /// The plan is structurally invalid (e.g. a set operation over inputs of
    /// different arity).
    Invalid(String),
    /// A rewrite or analysis step does not support this plan shape.
    Unsupported(String),
}

impl std::fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgebraError::Storage(e) => write!(f, "{e}"),
            AlgebraError::Invalid(msg) => write!(f, "invalid plan: {msg}"),
            AlgebraError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for AlgebraError {}

impl From<perm_storage::StorageError> for AlgebraError {
    fn from(e: perm_storage::StorageError) -> Self {
        AlgebraError::Storage(e)
    }
}

/// Result alias for algebra operations.
pub type Result<T> = std::result::Result<T, AlgebraError>;
