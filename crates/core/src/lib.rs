//! # perm-core
//!
//! The primary contribution of *Provenance for Nested Subqueries* (Glavic &
//! Alonso, EDBT 2009): Why-provenance for queries with sublinks, computed by
//! rewriting a query `q` into a query `q+` that propagates provenance in a
//! single relation.
//!
//! The crate provides:
//!
//! * [`roles`] — the *influence roles* (`reqtrue`, `reqfalse`, `ind`) of a
//!   sublink within a condition, and the auxiliary sets `Tsub_true` /
//!   `Tsub_false` (Section 2.3).
//! * [`definition`] — executable versions of the contribution Definition 1
//!   (Cui & Widom) and the extended Definition 2, implemented as brute-force
//!   checkers over small inputs. They serve as ground truth in tests and
//!   demonstrate the ambiguity of Definition 1 for multi-sublink queries
//!   (Section 2.5).
//! * [`tracer`] — a reference implementation that computes provenance
//!   directly from the closed-form characterisation of Figure 2 / Theorems
//!   1–3, tuple by tuple. It produces the same single-relation representation
//!   as the rewrites and is used as the test oracle for the rewrite
//!   strategies.
//! * [`provschema`] — the provenance schema `P(R)` bookkeeping.
//! * [`rewrite`] — the rewrite rules: the standard Perm rules R1–R5 and the
//!   sublink strategies **Gen**, **Left**, **Move** and **Unn** of Figure 5,
//!   together with applicability analysis. [`ProvenanceQuery`] is the one
//!   entry point. A σ or Π with sublinks of its own goes to one function
//!   for both operator kinds; the strategy only attaches the sublinks'
//!   provenance to the rewritten input: Gen (G1, G2) in `rewrite/gen.rs`,
//!   Left and Move (L1, L2, T1, T2) in `rewrite/left_move.rs`, Unn (U1, U2)
//!   in `rewrite/unn.rs`.
//!
//! ```
//! use perm_core::{ProvenanceQuery, Strategy};
//! use perm_algebra::{col, lit, PlanBuilder, CompareOp};
//! use perm_algebra::builder::any_sublink;
//! use perm_exec::Executor;
//! use perm_storage::{Database, Name, Relation, Schema, Value};
//!
//! // R(a, b) and S(c): which S tuples made an R tuple survive `a = ANY S`?
//! let mut db = Database::new();
//! db.create_table("r", Relation::from_rows(
//!     Schema::from_names(&["a", "b"]).with_qualifier("r"),
//!     vec![vec![Value::Int(1), Value::Int(1)], vec![Value::Int(3), Value::Int(6)]],
//! )).unwrap();
//! db.create_table("s", Relation::from_rows(
//!     Schema::from_names(&["c"]).with_qualifier("s"),
//!     vec![vec![Value::Int(1)], vec![Value::Int(4)]],
//! )).unwrap();
//!
//! let sub = PlanBuilder::scan(&db, "s").unwrap().build();
//! let q = PlanBuilder::scan(&db, "r").unwrap()
//!     .select(any_sublink(col("a"), CompareOp::Eq, sub))
//!     .build();
//!
//! let rewritten = ProvenanceQuery::new(&db, &q).strategy(Strategy::Gen).rewrite().unwrap();
//! let result = Executor::new(&db).execute(rewritten.plan()).unwrap();
//! let names = ["a", "b", "prov_r_a", "prov_r_b", "prov_s_c"].map(Name::from);
//! assert_eq!(result.schema().names(), names);
//! assert_eq!(result.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod definition;
pub mod provschema;
pub mod rewrite;
pub mod roles;
pub mod tracer;

pub use provschema::{ProvEntry, ProvenanceDescriptor};
pub use rewrite::{ProvenanceQuery, RewriteResult, Strategy};
pub use roles::InfluenceRole;

use perm_algebra::AlgebraError;
use perm_exec::ExecError;
use perm_storage::StorageError;

/// Errors raised by provenance computation.
#[derive(Debug, Clone, PartialEq)]
pub enum ProvenanceError {
    /// Schema or catalog failure.
    Storage(StorageError),
    /// Plan construction/validation failure.
    Algebra(String),
    /// Execution failure (used by the tracer and the definition checkers),
    /// kept typed so a caller can match e.g. [`ExecError::DivisionByZero`].
    Exec(ExecError),
    /// The requested strategy cannot rewrite this query (e.g. Left/Move/Unn
    /// on a correlated sublink). The caller can fall back to `Gen`.
    NotApplicable {
        strategy: &'static str,
        reason: String,
    },
    /// The query uses a feature the rewriter does not support.
    Unsupported(String),
}

impl std::fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvenanceError::Storage(e) => write!(f, "{e}"),
            ProvenanceError::Algebra(msg) => write!(f, "algebra error: {msg}"),
            ProvenanceError::Exec(e) => write!(f, "execution error: {e}"),
            ProvenanceError::NotApplicable { strategy, reason } => {
                write!(f, "strategy {strategy} is not applicable: {reason}")
            }
            ProvenanceError::Unsupported(msg) => write!(f, "unsupported query feature: {msg}"),
        }
    }
}

impl std::error::Error for ProvenanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProvenanceError::Storage(e) => Some(e),
            ProvenanceError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ProvenanceError {
    fn from(e: StorageError) -> Self {
        ProvenanceError::Storage(e)
    }
}

impl From<AlgebraError> for ProvenanceError {
    fn from(e: AlgebraError) -> Self {
        ProvenanceError::Algebra(e.to_string())
    }
}

impl From<ExecError> for ProvenanceError {
    fn from(e: ExecError) -> Self {
        ProvenanceError::Exec(e)
    }
}

/// Result alias for provenance computation.
pub type Result<T> = std::result::Result<T, ProvenanceError>;
