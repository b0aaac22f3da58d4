//! # perm — Why-provenance for SQL queries with nested subqueries
//!
//! A Rust implementation of *Provenance for Nested Subqueries* (Glavic &
//! Alonso, EDBT 2009): the Perm approach of computing the Why-provenance of a
//! query by rewriting it — entirely inside the relational model — into a
//! query that returns every original result tuple together with the input
//! tuples that contributed to it, including through `ANY`, `ALL`, `EXISTS`
//! and scalar subqueries (correlated, nested, or several per operator).
//!
//! ## The serving API: [`Engine`] and [`Session`]
//!
//! Because the rewrites stay inside the relational model, a provenance query
//! is served like any other query: prepare once, execute many times.
//! [`Session::prepare`] runs parse → bind → (optional) provenance rewrite →
//! optimize → compile exactly once and returns a [`Prepared`] statement.
//! The optimize phase ([`mod@optimize`], the `perm-optimize` crate) is a
//! fixpoint of cost-free logical rewrites — correlated
//! `EXISTS`/`NOT EXISTS`/`IN` sublinks become
//! hash semi/anti joins, predicates push toward scans, dead projection
//! columns drop, constants fold — and because the provenance rewrite runs
//! *before* it, witness columns are ordinary columns the optimizer
//! preserves like any other, and the Gen strategy's per-pair membership
//! sublinks over `T⁺ × CrossBase` are decorrelated into hash joins by the
//! same rules. The phase always runs; [`Session::explain`] shows the bound
//! plan, the optimized plan, which rules fired and how many sublinks
//! remain, side by side, and [`Prepared::bound_plan`] is the pre-optimizer
//! shape to run through the reference interpreter
//! ([`Executor::execute_unoptimized`]). Executions bind `$1`-style
//! parameters, stream through a [`Rows`] cursor, or return witnesses
//! structured per base relation via [`ProvenanceRows`]:
//!
//! ```
//! use perm::{Engine, Value, Database, Relation, Schema};
//!
//! let mut db = Database::new();
//! db.create_table("items", Relation::from_rows(
//!     Schema::from_names(&["id", "price"]).with_qualifier("items"),
//!     vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(99)]],
//! )).unwrap();
//! db.create_table("flagged", Relation::from_rows(
//!     Schema::from_names(&["item_id"]).with_qualifier("flagged"),
//!     vec![vec![Value::Int(2)]],
//! )).unwrap();
//!
//! let engine = Engine::new(db);
//! let session = engine.session();
//!
//! // Which `flagged` rows made an item costlier than $1 appear here?
//! let audit = session.prepare(
//!     "SELECT PROVENANCE id FROM items \
//!      WHERE price > $1 AND id IN (SELECT item_id FROM flagged)",
//! ).unwrap();
//!
//! let witnesses = session.provenance_rows(&audit, &[Value::Int(50)]).unwrap();
//! assert_eq!(witnesses.len(), 1);
//! let row = witnesses.iter().next().unwrap();
//! assert_eq!(row.output(), &[Value::Int(2)]);
//! let flagged_witness = row.witnesses().find(|w| w.table == "flagged").unwrap();
//! assert_eq!(flagged_witness.tuple(), Some(&[Value::Int(2)][..]));
//!
//! // Re-executing with a different binding costs only execution:
//! assert!(session.provenance_rows(&audit, &[Value::Int(500)]).unwrap().is_empty());
//! assert_eq!(session.stats().compiles, 1);
//! ```
//!
//! ## Observability
//!
//! Every layer of the stack reports on itself without external
//! dependencies:
//!
//! * **Per-operator profiles** — [`Session::explain`] returns the physical
//!   plan shape of a statement as a [`QueryProfile`] tree (no execution);
//!   [`Session::explain_analyze`] executes it and annotates every node
//!   with actuals: invocations, rows in/out, batches, wall time, sublink
//!   memo hits/misses, spill bytes and partitions, columnar-fallback rows.
//!   [`Session::execute_profiled`] keeps the result rows alongside the
//!   profile, and [`Executor::open_profiled`] opens a streaming cursor
//!   owning a profile whose [`Rows::profile`](perm_exec::Rows::profile) can
//!   be snapshotted mid-stream; the cursor pulls the pipeline
//!   `execute_profiled` drains, so a drained cursor's profile records the
//!   same invocations and output rows per node. Profiles render as text
//!   ([`QueryProfile::render`]) or JSON ([`QueryProfile::to_json`]), and
//!   the sum of per-node invocation counts equals the
//!   `operators_evaluated` counter by construction.
//! * **Phase wall time** — the session adds the wall time of every
//!   completed pipeline phase to six sums of [`SessionStats`]
//!   (`parse_ns`, `bind_ns`, `rewrite_ns`, `optimize_ns`, `compile_ns`,
//!   `execute_ns`; see its *Phase wall time* section): the difference of
//!   two snapshots says where the time between them went.
//! * **Counters** — [`Session::stats`] snapshots the monotone
//!   [`SessionStats`] (see its *Counter semantics* section): one counter
//!   registry, owned by the session's executor, that the pipeline phases
//!   and the executor bump where the work happens —
//!   [`Executor::stats`] reads the same value. Memo hits and misses, the
//!   worst [`Degradation`] rung reached and the cancellation checkpoints
//!   polled are counters there; a cancellation that fired is the
//!   [`ExecError::Cancelled`] its caller receives.
//! * **Serving metrics** — the `perm-serve` crate sums each request
//!   attempt's `Session::stats` deltas and its own request outcomes and
//!   latency histograms into a snapshot exportable in Prometheus text
//!   format.
//!
//! The `examples/observability.rs` example walks all four tiers.
//!
//! The workspace is organised as a stack:
//!
//! * [`perm_storage`] — values, tuples, schemas, relations, catalog;
//! * [`perm_algebra`] — the relational algebra with sublinks (Figure 1);
//! * [`perm_exec`] — a bag-semantics executor with correlated-sublink
//!   support, compiled expressions, a per-statement sublink memo, an
//!   optimizer layer (sublink decorrelation, predicate pushdown, projection
//!   pruning, constant folding) and a streaming cursor;
//! * [`perm_sql`] — a SQL front end with the `SELECT PROVENANCE` extension
//!   and `$n` query parameters;
//! * [`perm_core`] — the paper's contribution: contribution definitions,
//!   influence roles, the provenance tracer, and the Gen / Left / Move / Unn
//!   rewrite strategies;
//! * [`perm_tpch`] / [`perm_synthetic`] — the evaluation workloads.
//!
//! This facade crate hosts the [`Engine`]/[`Session`] serving layer, the
//! runnable examples and the cross-crate integration tests.

#![forbid(unsafe_code)]

mod session;

pub use perm_algebra as algebra;
pub use perm_core as core;
pub use perm_exec as exec;
pub use perm_optimize as optimize;
pub use perm_sql as sql;
pub use perm_storage as storage;
pub use perm_synthetic as synthetic;
pub use perm_tpch as tpch;

pub use perm_core::{
    ProvenanceDescriptor, ProvenanceError, ProvenanceQuery, RewriteResult, Strategy,
};
pub use perm_exec::{CancelToken, Degradation, ExecError, FaultKind, FaultPlan, FaultSite};
pub use perm_exec::{Executor, SessionStats};
pub use perm_exec::{ProfileNode, QueryProfile};
pub use perm_storage::{Database, Name, Relation, Schema, Tuple, Value};
pub use session::{
    Engine, PlanCacheStats, Prepared, ProvenanceRow, ProvenanceRows, Rows, Session, SessionConfig,
    Witness,
};

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::{
        Database, Engine, Executor, Name, Prepared, ProvenanceQuery, ProvenanceRows, QueryProfile,
        Relation, Rows, Schema, Session, SessionConfig, Strategy, Tuple, Value, Witness,
    };
    pub use perm_algebra::{col, lit, qcol, PlanBuilder};
}

/// Errors surfaced by the high-level API. Every variant wraps the error of
/// the pipeline stage that failed and exposes it via
/// [`std::error::Error::source`]; `Display` names the stage and includes the
/// cause, so e.g. SQL byte positions survive to the top level.
#[derive(Debug)]
pub enum PermError {
    /// SQL parsing or binding failed.
    Sql(perm_sql::SqlError),
    /// Provenance rewriting failed.
    Provenance(perm_core::ProvenanceError),
    /// Query execution failed.
    Exec(perm_exec::ExecError),
    /// A parameter-binding or statement-usage error at the session layer.
    Param(String),
    /// A worker panicked while serving the request; the panic was isolated
    /// (caught at the request boundary) and the rest of the batch kept
    /// going. The payload is the panic message when one was carried.
    Internal(String),
    /// The serving layer refused to admit the request: a batch admits only
    /// its first `limit` requests (in request order) and this one came
    /// later — load is shed explicitly rather than queued without bound.
    Rejected {
        /// The admission limit of the batch (requests admitted per batch).
        limit: usize,
    },
}

impl std::fmt::Display for PermError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PermError::Sql(e) => write!(f, "sql error: {e}"),
            PermError::Provenance(e) => write!(f, "provenance error: {e}"),
            PermError::Exec(e) => write!(f, "execution error: {e}"),
            PermError::Param(msg) => write!(f, "statement error: {msg}"),
            PermError::Internal(msg) => write!(f, "internal error: worker panicked: {msg}"),
            PermError::Rejected { limit } => {
                write!(
                    f,
                    "request rejected: a batch admits its first {limit} requests only"
                )
            }
        }
    }
}

impl std::error::Error for PermError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PermError::Sql(e) => Some(e),
            PermError::Provenance(e) => Some(e),
            PermError::Exec(e) => Some(e),
            PermError::Param(_) | PermError::Internal(_) | PermError::Rejected { .. } => None,
        }
    }
}

impl From<perm_sql::SqlError> for PermError {
    fn from(e: perm_sql::SqlError) -> Self {
        PermError::Sql(e)
    }
}
impl From<perm_core::ProvenanceError> for PermError {
    fn from(e: perm_core::ProvenanceError) -> Self {
        PermError::Provenance(e)
    }
}
impl From<perm_exec::ExecError> for PermError {
    fn from(e: perm_exec::ExecError) -> Self {
        PermError::Exec(e)
    }
}
