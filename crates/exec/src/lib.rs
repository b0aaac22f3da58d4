//! # perm-exec
//!
//! A bag-semantics executor for the `perm-algebra` plans, playing the role of
//! the (unmodified) PostgreSQL execution engine in the original Perm system:
//! the provenance rewrite rules of `perm-core` produce ordinary algebra plans
//! which this crate evaluates against an in-memory [`perm_storage::Database`].
//!
//! Correlated sublinks are supported by evaluating the sublink plan once per
//! binding of the correlated attributes (an environment stack of outer
//! tuples, innermost scope first), exactly as Section 2.2 of the paper
//! describes the parameterisation of `Tsub`.
//!
//! ## Architecture: one batch-at-a-time physical layer, two drivers
//!
//! Every operator loop — hash and nested-loop joins (with left-outer NULL
//! padding), aggregate grouping, sorting, set operations, projection and
//! selection — is implemented exactly once, in the `physical` module, and
//! operates **batch-at-a-time**: inputs are processed in [`Batch`]es of up
//! to [`BATCH_ROWS`] tuples carrying a selection vector (see [`batch`] for
//! the invariants), so filters mark survivors instead of copying rows and
//! every expression is dispatched once per batch instead of once per
//! tuple. The loops are parameterized over *batch-evaluator closures*; two
//! thin drivers share the bodies:
//!
//! * the default path ([`Executor::execute`]) first *compiles* the plan
//!   ([`compile`]): column references become positional slots and every
//!   sublink carries its resolved correlation signature. Its closures
//!   evaluate each compiled expression **vectorized** over the whole batch
//!   (one recursive descent per expression per batch, with `AND`/`OR` and
//!   `CASE` narrowing the selection so per-row short-circuit semantics are
//!   preserved exactly). An *uncorrelated* sublink is fetched once per
//!   batch and broadcast (`ANY`/`ALL`: one [`QuantProbe`] verdict per live
//!   row over the vectorized test column); a correlated one is looked up in
//!   the memo once per live row, under that row's bindings. This is the
//!   one evaluator of compiled expressions: with
//!   [`Executor::with_batching`]`(false)` it runs each live row as a batch
//!   of one, and the cursor replays a failing batch the same way;
//!
//!   On top of the batches the compiled path runs **column-major**: every
//!   batch is backed by a [`ColumnBlock`] whose typed lanes (i64, f64,
//!   date, bool and string vectors, each with a packed validity bitmap,
//!   plus a `Value`-vector fallback lane for mixed-type columns) are
//!   materialised lazily, one column at a time, on first access. Slot
//!   references load a lane once per batch, the [`kernels`] module
//!   evaluates comparisons and arithmetic as tight loops over the typed
//!   lanes (whole-column fast paths with a per-column scalar retry on
//!   overflow or type mixing — never a silent wrong answer), and hash-join
//!   build/probe and aggregate grouping encode their keys **column-wise**
//!   (`encode_key_column` in `perm-storage`, byte-identical to the
//!   row-major encoding). Tuples are only re-materialised at pipeline
//!   breakers, the memo seam and the [`Rows`] boundary. The layer is
//!   observable ([`SessionStats::columnar_blocks`],
//!   [`SessionStats::columnar_fallback_rows`]). There is one vectorized
//!   evaluator; [`Executor::with_columnar`]`(false)` changes only its
//!   leaves — slots load `Value` lanes, so every kernel takes its scalar
//!   fallback inside the same `AND`/`OR`/`CASE` narrowing — which is how
//!   the differential tests check the typed kernels against the scalar
//!   appliers;
//! * the name-resolving [`Interpreter`] ([`Executor::execute_unoptimized`]),
//!   the reference semantics of the equivalence tests and the substrate of
//!   the tracer in `perm-core`; its closures loop over each batch **row by
//!   row**, resolving names through an [`Env`] chain — the unchanged
//!   per-tuple semantics batching is differential-tested against — and it
//!   recovers correlation signatures at runtime. An interpreter is a value
//!   that lives for one execution, over plans borrowed for its lifetime.
//!
//! Pipeline breakers (aggregation, sorting, set operations, the join build
//! side) consume batches at their input boundary; the streamable spine
//! (`scan → select → project → limit`) additionally streams batches lazily
//! through the [`cursor`] pull path, which a top-level `LIMIT` also uses on
//! the materialising path so the tail beyond the limit is never evaluated.
//!
//! Both drivers memoize sublinks per binding — a correlated sublink runs
//! once per *distinct* binding instead of once per outer tuple, and an
//! uncorrelated sublink runs once per query (PostgreSQL's InitPlan
//! behaviour). An interpreter keeps result relations, shared as
//! `Rc<Relation>`s (hits never deep-copy), in a map of its own that goes
//! with it. For `ANY`/`ALL` it folds the comparison over the result rows —
//! the reference — while the compiled path summarises each result once into a
//! [`QuantProbe`] (key set, NULL flag, per-class bounds), memoized per
//! `(sublink, database version, binding)` in the compiled statement's
//! memo, and answers every test value with one hash probe. Since the operator bodies are
//! shared, a semantics fix lands in one place, and the
//! `operators_evaluated` accounting lives in the physical layer alone —
//! counted once per logical operator invocation, never per batch, so the
//! counter is comparable across batch sizes and execution modes.
//!
//! Ahead of compilation sits the **optimizer layer** ([`mod@optimize`]) — a
//! fixpoint of cost-free logical rewrites over the bound algebra: correlated
//! `EXISTS`/`NOT EXISTS`/`IN`-equality sublinks in top-scope selections are
//! *decorrelated* into hash semi/anti joins (the static counterpart of the
//! runtime memo above — shapes the rules cannot prove safe simply keep the
//! memo path), selections push toward the scans, projection columns nobody
//! reads are pruned, and constant subexpressions fold. The same generic
//! rules make the Gen strategy's `σ[C ∧ Csub⁺](T⁺ × CrossBase)` — a
//! per-pair sublink over a materialised cross product — join-shaped:
//! a sublink conjunct implies its copies inside `Csub⁺` away, what remains
//! of the disjunction splits into a `UNION ALL`, the membership sublink's
//! correlation is hoisted through `Tsub⁺`, and the semi join goes through
//! the product as two hash joins. Every rule preserves result bags, the
//! error set *and* the `operators_evaluated` bound; the module
//! documentation spells out the three observables and each rule's
//! argument, and [`OptimizerReport`] says which rules fired and how many
//! sublinks are left to the memo. Its last step turns a selection left
//! directly above a cross product into a join, so what it returns is
//! exactly what [`Executor::prepare`] compiles. The `Session` facade runs
//! the phase between the provenance rewrite and [`compile`] (so witness
//! columns are ordinary columns by then); executor-direct callers call
//! [`optimize()`] and execute the plan it returns, as
//! `tests/differential.rs` does to check the Gen-rewritten corpus against
//! the reference interpreter (the benchmark reports what is left as
//! `optimize.sublinks_remaining`).
//!
//! An [`Executor`] is deliberately `!Sync` (its counters use
//! `Cell`/`RefCell`) and keeps no state keyed by a plan — concurrency
//! happens *above* it, one executor per worker thread. What crosses threads
//! is the data: the database and compiled plans. A [`CompiledPlan`] carries
//! its own mutex-guarded sublink memo (an `EXISTS` flag, a scalar value or
//! an `ANY`/`ALL` [`QuantProbe`] per binding), so a binding one worker of
//! the `perm-serve` pool has evaluated is a hit for every other worker
//! serving the same statement, and the entries go away with the statement.
//! Each key carries the database version, so a statement run over changed
//! data misses rather than serve a stale summary.
//!
//! The [`resilience`] module threads serving-grade governance through the
//! same physical layer: cooperative cancellation and deadlines (polled at
//! batch boundaries via a [`CancelToken`], surfacing as
//! [`ExecError::Cancelled`]), a per-executor memory budget with byte-aware
//! memo accounting and a drop-memos, then spill, then fail degradation
//! ladder (surfaced as [`Degradation`]; only its last rung is
//! [`ExecError::ResourceExhausted`]), and a deterministic [`FaultPlan`]
//! injector for crash-consistency testing. With spilling enabled
//! (`Executor::with_spill`) the growing operators go **out of core**
//! instead of failing: the hash join partitions its build side to disk
//! (grace hash join), the sort writes sorted runs and k-way-merges them,
//! and the aggregate partitions partial group states — all through the
//! write-once heap files and read-only buffer pool of `perm-storage`.
//! Memo entries are dropped under pressure, never spilled.
//!
//! What execution costs is read from one place: [`Executor::stats`]
//! snapshots the executor's counter registry as a [`SessionStats`] — each
//! counter one cell, bumped where the work happens (the [`stats`] module
//! lists them), the session facade's pipeline counters included. Events
//! go to one place too: the governor writes [`TraceEvent`]s (memo inserts
//! and hits, degradation rungs, fired cancellations) straight into the
//! [`TraceSink`] of [`Executor::set_trace_sink`], the type the facade's
//! session records its phase spans with.
//!
//! One process-wide side effect: the first [`Executor::new`] tells glibc
//! to keep freed heap rather than return it to the kernel after every
//! query (`M_TRIM_THRESHOLD`; the private `heap` module says why). Peak
//! memory is unchanged; nothing happens with another C library.

#![deny(unsafe_code)]

pub mod aggregate;
pub mod batch;
pub mod compile;
pub mod cursor;
pub mod eval;
pub mod executor;
pub mod functions;
mod heap;
pub mod interpreter;
pub mod kernels;
pub(crate) mod memo;
pub mod optimize;
pub(crate) mod physical;
pub mod profile;
mod quant;
pub mod resilience;
pub(crate) mod spill;
pub mod stats;
pub mod trace;

pub use batch::{Batch, ColumnBlock, BATCH_ROWS};
pub use compile::{CompiledExpr, CompiledNode, CompiledPlan, Slot};
pub use cursor::Rows;
pub use eval::Env;
pub use executor::Executor;
pub use interpreter::Interpreter;
pub use optimize::{optimize, plan_fingerprint, OptimizerReport};
pub use profile::{ProfileNode, QueryProfile};
pub use quant::QuantProbe;
pub use resilience::{CancelToken, Degradation, FaultKind, FaultPlan, FaultSite};
pub use stats::SessionStats;
pub use trace::{RingTraceSink, TraceEvent, TraceKind, TraceSink};

use perm_storage::StorageError;

/// Errors raised during query execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Schema/name resolution or catalog failure.
    Storage(StorageError),
    /// A value had the wrong type for an operation.
    Type(String),
    /// A scalar sublink produced more than one tuple or more than one
    /// attribute.
    ScalarSublinkCardinality(String),
    /// An `ANY`/`ALL` sublink's query produced this many attributes instead
    /// of one (the binder refuses such SQL; a hand-built plan meets it
    /// here, before any row is compared).
    QuantifiedSublinkArity(usize),
    /// Division by zero.
    DivisionByZero,
    /// A `$n` query parameter was referenced but not bound.
    Param(String),
    /// The plan is invalid or uses a feature the executor does not support.
    Unsupported(String),
    /// The query was cancelled cooperatively — by an explicit
    /// [`CancelToken::cancel`], an expired deadline, or an injected fault.
    /// Raised at a batch-boundary checkpoint, so no partial result escapes.
    Cancelled {
        /// Why the query was cancelled (e.g. `"deadline exceeded"`).
        reason: String,
    },
    /// The memory budget was exhausted and reclaiming memos did not free
    /// enough; names the physical operator whose state hit the limit.
    ResourceExhausted {
        /// The physical operator that could not grow its state.
        operator: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "{e}"),
            ExecError::Type(msg) => write!(f, "type error: {msg}"),
            ExecError::ScalarSublinkCardinality(msg) => {
                write!(f, "scalar sublink cardinality violation: {msg}")
            }
            ExecError::QuantifiedSublinkArity(n) => {
                write!(f, "ANY/ALL sublink must produce one attribute, got {n}")
            }
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::Param(msg) => write!(f, "parameter error: {msg}"),
            ExecError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            ExecError::Cancelled { reason } => write!(f, "query cancelled: {reason}"),
            ExecError::ResourceExhausted { operator } => {
                write!(f, "memory budget exhausted in operator `{operator}`")
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        ExecError::Storage(e)
    }
}

impl From<perm_algebra::AlgebraError> for ExecError {
    fn from(e: perm_algebra::AlgebraError) -> Self {
        match e {
            perm_algebra::AlgebraError::Storage(s) => ExecError::Storage(s),
            other => ExecError::Unsupported(other.to_string()),
        }
    }
}

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;
