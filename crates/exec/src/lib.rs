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
//! tuple. A join has one per-left-row body, whatever finds the left row's
//! right rows — the resident hash table, a grace partition read back from
//! disk, or the nested loop — and two orders to emit in: as it goes, in
//! left order, or keyed by left ordinal when grace partitions scramble that
//! order and a stable sort restores it. Its candidate rows are batched
//! across left rows; the nested loop evaluates the leading conjuncts of its
//! condition that read only the left row once per left row, over batches
//! of left rows, and builds candidates only for the rows they do not
//! reject (Gen's `σ_{C ∧ Csub⁺ …}(T⁺ × CrossBase)`, whose `C` is tested
//! once per `T⁺` row). The loops are parameterized over
//! *batch-evaluator closures*; two thin drivers share the bodies:
//!
//! * the default path ([`Executor::execute`]) first *compiles* the plan
//!   ([`compile`]): column references become positional slots and every
//!   sublink carries its resolved correlation signature. Its closures
//!   evaluate each compiled expression **vectorized** over the whole batch
//!   (one recursive descent per expression per batch, with `AND` chains,
//!   `OR` and `CASE` narrowing the selection so per-row short-circuit
//!   semantics are preserved exactly). An *uncorrelated* sublink is fetched once per
//!   batch and broadcast (`ANY`/`ALL`: one [`QuantProbe`] verdict per live
//!   row over the vectorized test column); a correlated one is looked up in
//!   the memo once per live row, under that row's bindings. This is the
//!   one evaluator of compiled expressions: with
//!   [`Executor::with_batching`]`(false)` it runs each live row as a batch
//!   of one, and a failing selection or projection batch is replayed the
//!   same way;
//!
//!   On top of the batches the compiled path runs **column-major**: every
//!   batch is backed by a [`ColumnBlock`] of typed lanes (i64, f64, date,
//!   bool and string vectors, each with a packed validity bitmap, plus a
//!   `Value`-vector fallback lane for mixed-type columns). A stored table's
//!   `Int`, `Float`, `Date` and `Bool` columns have lanes built once, when
//!   the table enters the catalog; a batch a scan hands on reads them as
//!   slices in place. Every other column is transposed out of the tuple
//!   block on first access, one column at a time. A selection's `AND`
//!   chain — flattened into conjuncts at compile time — narrows one
//!   selection vector conjunct by conjunct, a `slot ⟨cmp⟩ constant`
//!   conjunct in one pass over the slot's lane. Slot
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
//! Both drivers run an *execution*: a value each entry builds from what the
//! caller bound on the executor — a snapshot of the `$n` parameters, the
//! cancel token installed by [`Executor::set_cancel_token`] (taken, so it
//! governs that execution alone) and, when profiled, the profile tree. The
//! drivers, a [`Rows`] cursor (which owns its execution for as long as it
//! lives) and the physical operators read these from the execution, never
//! from the executor, so executions interleaved on one executor — a stream
//! and the statements run while it is open — keep their own parameters,
//! token and profile. Sublink ids are numbered per plan: only the plan's
//! own memo and profile look them up.
//!
//! The operator bodies own nothing they did not build. A scan (and a
//! `VALUES` list) hands its parent the stored rows in place, under the
//! plan's schema and after the per-row arity check a relation makes, so a
//! statement prepared against a wider table fails with a typed arity
//! mismatch. An operator that reads its input (join, computed projection,
//! aggregate, set operation, cross product, a sublink's summary) borrows
//! it; one that passes rows on (selection, pass-through projection, sort,
//! limit) moves the rows an operator built and copies the stored ones it
//! emits. The first copy of a stored row is therefore made by the operator
//! that keeps it — a selection's survivor, a join's output row, a sort's
//! row in sorted order — or, for a plan that is a bare scan, where the
//! driver returns the result; both drivers follow that rule. In the
//! compiled driver that copy is also the last: a pass-through projection
//! (a [`compile::ColumnMap`], the rename-only `Π` every provenance rule
//! ends in) directly above a join, selection or sort hands its map down,
//! and the operator builds each row through it, leaving the `Π` nothing to
//! gather.
//!
//! The compiled driver is one pull pipeline (`pipeline`): scans,
//! selections, projections and `LIMIT`s pass batches on, pipeline breakers
//! drain their inputs; [`Executor::execute_compiled`] drains the root, a
//! [`Rows`] cursor pulls it, and a `LIMIT` above every breaker is lazy on
//! both.
//!
//! Both drivers memoize sublinks per binding — a correlated sublink runs
//! once per *distinct* binding instead of once per outer tuple, and an
//! uncorrelated sublink runs once per query (PostgreSQL's InitPlan
//! behaviour). An interpreter keeps result rows, shared behind `Rc`s (hits
//! never deep-copy, and a sublink over a bare scan holds the stored rows by
//! reference), in a map of its own that goes with it. For `ANY`/`ALL` it
//! folds the comparison over the result rows — the reference — while the
//! compiled path summarises each result once into a
//! [`QuantProbe`] (key set, NULL flag, per-class bounds), memoized per
//! `(sublink, database version, binding)` in the compiled statement's
//! memo, and answers every test value with one hash probe. Since the operator bodies are
//! shared, a semantics fix lands in one place, and the
//! `operators_evaluated` accounting lives in the physical layer alone —
//! counted once per logical operator invocation, never per batch, so the
//! counter is comparable across batch sizes and execution modes.
//!
//! This crate executes exactly the plan it is given. The optimizer — the
//! fixpoint of cost-free rewrites that decorrelates sublinks into semi /
//! anti joins, pushes selections, prunes, folds and fuses — is its own
//! crate, `perm-optimize`, which runs before [`Executor::prepare`] and
//! knows nothing of execution; the `Session` facade runs it between the
//! provenance rewrite and [`compile`], and executor-direct callers (such as
//! `tests/differential.rs`) call `perm_optimize::optimize` and execute the
//! plan it returns.
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
//! (grace hash join, each partition driving the resident probe's body), the
//! sort writes sorted runs and k-way-merges them, and the aggregate
//! partitions partial group states — all through the write-once heap files
//! and read-only buffer pool of `perm-storage`. Memo entries are dropped
//! under pressure, never spilled.
//!
//! What execution costs is read from one place: [`Executor::stats`]
//! snapshots the executor's counter registry as a [`SessionStats`] — each
//! counter one cell, bumped where the work happens (the [`stats`] module
//! lists them), the session facade's pipeline counters and per-phase
//! wall-time sums included. A memo hit, a degradation rung or a fired
//! cancellation is read there too (`memo_hits`, `degradation`), or as the
//! [`ExecError::Cancelled`] the caller receives.
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
pub(crate) mod physical;
pub(crate) mod pipeline;
pub mod profile;
mod quant;
pub mod resilience;
pub(crate) mod spill;
pub mod stats;

pub use batch::{Batch, ColumnBlock, BATCH_ROWS};
pub use compile::{CompiledExpr, CompiledNode, CompiledPlan, Slot};
pub use cursor::Rows;
pub use eval::Env;
pub use executor::Executor;
pub use interpreter::Interpreter;
pub use profile::{ProfileNode, QueryProfile};
pub use quant::QuantProbe;
pub use resilience::{CancelToken, Degradation, FaultKind, FaultPlan, FaultSite};
pub use stats::SessionStats;

/// The optimizer under its old path, kept only because the frozen
/// benchmark (`benchmark/src/ops.rs:13`) and `tests/plan_identity.rs`
/// still import `perm_exec::optimize` / `perm::exec::optimize`; ROADMAP
/// item 1e deletes it. Everything else names `perm_optimize`.
pub use perm_optimize as optimize;

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

impl From<perm_algebra::ArithmeticError> for ExecError {
    fn from(e: perm_algebra::ArithmeticError) -> Self {
        match e {
            perm_algebra::ArithmeticError::Type(msg) => ExecError::Type(msg),
            perm_algebra::ArithmeticError::DivisionByZero => ExecError::DivisionByZero,
        }
    }
}

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;
