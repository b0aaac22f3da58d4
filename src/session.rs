//! The serving-grade API: an [`Engine`] owning the data, [`Session`]s that
//! prepare and execute statements, [`Prepared`] statements that carry the
//! whole parse → bind → rewrite → optimize → compile pipeline exactly once,
//! and structured results ([`Rows`] cursors and [`ProvenanceRows`] witness
//! views).
//!
//! The Perm approach computes provenance *inside* the relational model
//! precisely so an unmodified engine can serve it like any other query.
//! This module is the serving side of that bargain: a query — provenance or
//! plain — is prepared once and executed many times with different `$1`-style
//! parameter bindings, paying per execution only for execution.
//!
//! ```
//! use perm::{Engine, Value};
//! use perm::{Database, Relation, Schema};
//!
//! let mut db = Database::new();
//! db.create_table("items", Relation::from_rows(
//!     Schema::from_names(&["id", "price"]).with_qualifier("items"),
//!     vec![vec![Value::Int(1), Value::Int(10)], vec![Value::Int(2), Value::Int(99)]],
//! )).unwrap();
//!
//! let engine = Engine::new(db);
//! let session = engine.session();
//! let expensive = session.prepare("SELECT id FROM items WHERE price > $1").unwrap();
//! assert_eq!(session.execute(&expensive, &[Value::Int(50)]).unwrap().len(), 1);
//! assert_eq!(session.execute(&expensive, &[Value::Int(5)]).unwrap().len(), 2);
//! // Two executions, one compilation.
//! assert_eq!(session.stats().compiles, 1);
//! ```

use crate::PermError;
use perm_algebra::Plan;
use perm_core::{ProvenanceDescriptor, ProvenanceQuery, Strategy};
use perm_exec::{CancelToken, Executor, FaultPlan, QueryProfile, SessionStats};
use perm_storage::{Database, Relation, Schema, Tuple, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Re-export of the executor's streaming cursor: `Iterator<Item =
/// Result<Tuple, ExecError>>`. See [`Session::rows`].
pub use perm_exec::Rows;

/// The owning entry point: a database plus the default session
/// configuration and the **cross-session plan cache**. An engine is the
/// long-lived object of a serving process; each worker opens its own
/// (cheap) [`Session`] against it, and a statement prepared by any of them
/// is a cache hit for all of them.
pub struct Engine {
    db: Database,
    config: SessionConfig,
    plan_cache: PlanCache,
}

impl Engine {
    /// Creates an engine over a database with the default
    /// [`SessionConfig`].
    pub fn new(db: Database) -> Engine {
        Engine {
            db,
            config: SessionConfig::default(),
            plan_cache: PlanCache::default(),
        }
    }

    /// Replaces the default configuration handed to [`Engine::session`].
    pub fn with_config(mut self, config: SessionConfig) -> Engine {
        self.config = config;
        self
    }

    /// Bounds the cross-session plan cache to at most `capacity` cached
    /// statements (insertion-order eviction; an evicted statement that is
    /// still hot simply re-enters on its next preparation). `Some(0)`
    /// caches nothing: every prepare compiles, and the statement it returns
    /// works as usual. `None` — the
    /// default — keeps it unbounded, which is right when clients use `$n`
    /// parameters; bound it when serving ad-hoc texts with inlined
    /// literals, where every request is a new cache key.
    pub fn with_plan_cache_capacity(self, capacity: Option<usize>) -> Engine {
        self.plan_cache.set_capacity(capacity);
        self
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The default configuration handed to [`Engine::session`].
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Mutable access to the database (loading tables, etc.). Note that
    /// sessions borrow the engine, so data loading happens between
    /// sessions, not under them — exactly the exclusivity the borrow
    /// checker enforces.
    ///
    /// Taking this empties the cross-session plan cache: prepared
    /// statements bind against catalog schemas. A statement held elsewhere
    /// stays usable and sees the new data — its memo keys carry the
    /// [`Database::version`], which every mutation changes, so the entries
    /// of the old data can never hit again.
    pub fn database_mut(&mut self) -> &mut Database {
        self.plan_cache.clear();
        &mut self.db
    }

    /// Opens a session with the engine's default configuration.
    pub fn session(&self) -> Session<'_> {
        self.session_with(self.config.clone())
    }

    /// Opens a session with an explicit configuration.
    pub fn session_with(&self, config: SessionConfig) -> Session<'_> {
        let mut session = Session::with_config(&self.db, config);
        session.plan_cache = Some(&self.plan_cache);
        session
    }

    /// Hit/miss/entry counters of the cross-session plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }
}

/// The cache key of one prepared statement: the SQL text plus the two
/// parts of the [`SessionConfig`] that shape the *prepared form* — the
/// rewrite strategy and the bound of the statement's memo — and whether
/// provenance was forced by [`Session::prepare_provenance`] rather than the
/// `SELECT PROVENANCE` marker (which lives in the text itself).
/// Execution-only knobs (the memo toggle, retention, batching and columnar
/// layout) are deliberately *not* part of the key: sessions differing only
/// in those share one compiled plan, and with it one memo.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    sql: String,
    forced_provenance: bool,
    strategy: Strategy,
    memo_capacity: Option<usize>,
}

/// The engine's cross-session plan cache: SQL text (+ config fingerprint)
/// → shared [`Prepared`]. A plain mutex-guarded map — preparation is rare
/// and expensive next to execution, so one lock is not a bottleneck; the
/// hot path (execution) never touches it. An optional capacity bound
/// ([`Engine::with_plan_cache_capacity`]) evicts in insertion order.
#[derive(Default)]
struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<PlanKey, Arc<Prepared>>,
    /// Insertion order of the live keys, for capacity eviction. Only
    /// maintained while a capacity is set (empty otherwise).
    order: VecDeque<PlanKey>,
    capacity: Option<usize>,
}

impl PlanCacheInner {
    fn evict_over_capacity(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.map.len() > capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => {
                    // Entries inserted while unbounded have no order record;
                    // rebuild it (arbitrary order is a valid insertion
                    // history for them) and retry.
                    self.order = self.map.keys().cloned().collect();
                    if self.order.is_empty() {
                        break;
                    }
                }
            }
        }
    }
}

impl PlanCache {
    fn set_capacity(&self, capacity: Option<usize>) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.capacity = capacity;
        if capacity.is_none() {
            inner.order.clear();
        }
        inner.evict_over_capacity();
    }

    fn get(&self, key: &PlanKey) -> Option<Arc<Prepared>> {
        let hit = self
            .inner
            .lock()
            .expect("plan cache poisoned")
            .map
            .get(key)
            .cloned();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Inserts a freshly prepared statement and returns the *canonical*
    /// one: two sessions racing to prepare the same statement both get
    /// here, the incumbent wins, and the loser's compilation is discarded
    /// — including by its own preparer, which adopts the returned
    /// incumbent so every holder shares one statement, and with it one
    /// memo.
    fn insert(&self, key: PlanKey, prepared: Arc<Prepared>) -> Arc<Prepared> {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if let Some(incumbent) = inner.map.get(&key) {
            return Arc::clone(incumbent);
        }
        if inner.capacity.is_some() {
            inner.order.push_back(key.clone());
        }
        inner.map.insert(key, Arc::clone(&prepared));
        inner.evict_over_capacity();
        prepared
    }

    fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.clear();
        inner.order.clear();
    }

    fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("plan cache poisoned").map.len(),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.stats().fmt(f)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.db.table_names())
            .field("config", &self.config)
            .field("plan_cache", &self.plan_cache)
            .finish()
    }
}

/// Counters of the engine-wide plan cache ([`Engine::plan_cache_stats`]).
/// Per-session views of the same traffic are on [`SessionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Preparations served from the cache (no parse/bind/rewrite/compile).
    pub hits: u64,
    /// Preparations that had to run the full pipeline.
    pub misses: u64,
    /// Statements currently cached.
    pub entries: usize,
}

/// Session configuration: the rewrite strategy and the execution knobs of a
/// session's [`Executor`] (memo, evaluation layout, deadline, budget,
/// spill, fault injection), in one place. [`Engine::session`] hands out the
/// engine's default; [`Engine::session_with`] takes one.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The provenance rewrite strategy (default [`Strategy::Auto`]).
    pub strategy: Strategy,
    /// Whether correlated sublinks are memoized per distinct binding
    /// (default `true`; the uncorrelated InitPlan caching stays on either
    /// way).
    pub sublink_memo: bool,
    /// Optional LRU bound, in entries, on the sublink memo of each statement
    /// the session prepares (default `None`, i.e. unbounded — the
    /// established behaviour). The memo belongs to the [`Prepared`]
    /// statement, so the bound travels with it to every session that runs
    /// it, and it is part of the plan-cache key. An entry holds what one
    /// binding's verdict needs — an `EXISTS` flag, a scalar value or an
    /// `ANY`/`ALL` probe — never the sublink's result. Bounding the memo
    /// trades repeated sublink work for bounded memory on high-cardinality
    /// correlations, or on a statement kept across many changes of the
    /// data.
    pub memo_capacity: Option<usize>,
    /// Whether a statement's memo entries survive from one execution to the
    /// next (default `true` — parameter values and the database version are
    /// part of every memo key, so reuse is safe and is the point of
    /// preparing). Under `false` every execution on this session starts the
    /// statement's memo empty, for every session sharing the statement.
    pub retain_memo: bool,
    /// Whether compiled expressions are evaluated **vectorized** over tuple
    /// batches (default `true`): one dispatch per expression per batch of
    /// up to [`perm_exec::BATCH_ROWS`] rows instead of one per row. Results
    /// and errors are identical either way; `false` runs the same evaluator
    /// over every live row as a batch of one — the per-row dispatch
    /// profile, a mode of the differential tests (see
    /// [`perm_exec::Executor::with_batching`]).
    pub batching: bool,
    /// Whether vectorized expressions run over **typed column lanes**
    /// (default `true`): each batch is backed by a column block of typed
    /// vectors with validity bitmaps — a stored table's lanes read in
    /// place, other columns transposed on first access — and
    /// comparison/arithmetic dispatch to contiguous-slice kernels. `false` changes only the leaves —
    /// slots load `Value` lanes, so every kernel takes its scalar fallback
    /// (a mode of the differential tests; see
    /// [`perm_exec::Executor::with_columnar`]). Results and errors are
    /// identical either way.
    pub columnar: bool,
    /// Optional per-execution deadline (default `None`). When set, every
    /// [`Session::execute`]/[`Session::rows`] call mints a fresh
    /// [`CancelToken`] with this time budget, which governs that execution
    /// alone (a cursor's for as long as it streams); an execution that
    /// overruns it is cancelled cooperatively at the next batch boundary
    /// and surfaces as [`perm_exec::ExecError::Cancelled`]. Per-call
    /// override: [`Session::execute_with_deadline`]. Not part of the
    /// plan-cache key — sessions differing only in deadline share compiled
    /// plans.
    pub deadline: Option<Duration>,
    /// Optional memory budget in bytes for the session's executor (default
    /// `None` = unbounded). Execution state (join build tables, aggregation
    /// groups, sort keys) and memo entries are accounted against it; under
    /// pressure the memo entries are dropped first (a speed loss, not an
    /// error), then operator state spills if [`SessionConfig::spill`] is
    /// on, and only when an operator still cannot grow does execution fail
    /// with [`perm_exec::ExecError::ResourceExhausted`] naming the
    /// operator.
    /// Execution-only, like the memo knobs: not part of the plan-cache key.
    pub memory_budget: Option<u64>,
    /// Whether execution may **spill to disk** under memory pressure
    /// (default `false`). With a [`SessionConfig::memory_budget`] set and
    /// spilling on, the growing operators go out of core instead of
    /// failing — grace hash join, external merge sort, partitioned
    /// aggregation — once dropping the memo entries has not freed enough,
    /// demoting [`perm_exec::ExecError::ResourceExhausted`] to a last
    /// resort. Memo entries themselves are never spilled.
    /// Results are bag- and order-identical to in-memory execution; the
    /// spill counters on [`SessionStats`] and
    /// [`SessionStats::degradation`] record what happened. Execution-only:
    /// not part of the plan-cache key.
    pub spill: bool,
    /// Base directory for spill files (default `None` = the system temp
    /// dir). The session's executor creates a process-unique subdirectory
    /// inside it and removes that subdirectory when the session drops.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Deterministic fault injection for resilience testing (default
    /// `None`): the plan is installed on the session's executor and fires
    /// at the configured N-th checkpoint/memo/operator event. Serving
    /// tests use this to provoke cancellations, budget exhaustion and
    /// worker panics at exact, reproducible points.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            strategy: Strategy::Auto,
            sublink_memo: true,
            memo_capacity: None,
            retain_memo: true,
            batching: true,
            columnar: true,
            deadline: None,
            memory_budget: None,
            spill: false,
            spill_dir: None,
            fault_plan: None,
        }
    }
}

/// A session: the unit of statement preparation and execution. Holds one
/// [`Executor`], whose counter registry — the session's pipeline counters
/// included — accumulates over the session's life ([`Session::stats`]).
/// Cheap to create; not `Sync` — one session per worker.
pub struct Session<'a> {
    db: &'a Database,
    config: SessionConfig,
    executor: Executor<'a>,
    /// The engine's cross-session plan cache; `None` for sessions opened
    /// directly over a database ([`Session::new`]), which prepare privately.
    plan_cache: Option<&'a PlanCache>,
}

/// A prepared statement: the result of running parse → bind → (optional)
/// provenance rewrite → optimize → compile exactly once. Executing it again
/// costs only execution. A `Prepared` owns its compiled form and its sublink
/// memo, and can outlive the session that prepared it: every session that
/// executes it — through the engine's plan cache or a shared
/// `Arc<Prepared>`, on any thread — reads and fills the same memo, and the
/// memo is freed with the statement. Memo keys carry the
/// [`Database::version`], so the statement runs correctly over any database
/// with the catalog schemas it was bound against, and never serves an entry
/// computed over other data.
#[derive(Debug)]
pub struct Prepared {
    sql: Option<String>,
    /// The bound (and, for provenance statements, rewritten) logical plan
    /// as it entered the optimizer — the reference shape.
    bound_plan: Plan,
    /// What the optimizer did to [`Prepared::bound_plan`].
    optimizer: perm_optimize::OptimizerReport,
    /// The logical plan that was compiled: the optimized form of
    /// [`Prepared::bound_plan`] (identical when no rule fired). The two
    /// share every subtree the optimizer left alone.
    plan: Plan,
    /// The slot-resolved physical form of [`Prepared::plan`].
    compiled: perm_exec::CompiledPlan,
    /// For a provenance statement, maps the appended provenance attributes
    /// back to base-relation accesses; `None` for an ordinary query.
    descriptor: Option<ProvenanceDescriptor>,
    schema: Schema,
    param_count: usize,
}

impl Prepared {
    /// The SQL text this statement was prepared from, when it came from
    /// SQL.
    pub fn sql(&self) -> Option<&str> {
        self.sql.as_deref()
    }

    /// The output schema (for provenance statements: original attributes
    /// followed by the provenance attributes).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of `$n` parameter slots the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The provenance descriptor, when this is a provenance statement.
    pub fn descriptor(&self) -> Option<&ProvenanceDescriptor> {
        self.descriptor.as_ref()
    }

    /// The logical plan that was compiled — exactly, operator for operator:
    /// the *optimized* form of the bound plan, which `Executor::prepare`
    /// compiles without reshaping it. The pre-optimization shape is
    /// [`Prepared::bound_plan`].
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The bound (and, for provenance statements, rewritten) logical plan
    /// *before* the optimizer ran — the reference shape
    /// [`Session::explain`] diffs against, and the plan to run through
    /// [`Executor::execute_unoptimized`] (the reference interpreter) or
    /// [`Executor::execute`] (the memo-only baseline, which compiles it as
    /// written: a selection over a cross product materialises the product)
    /// when checking what the optimizer did.
    pub fn bound_plan(&self) -> &Plan {
        &self.bound_plan
    }

    /// What the optimizer did to this statement (all-zero when no rule
    /// fired).
    pub fn optimizer_report(&self) -> perm_optimize::OptimizerReport {
        self.optimizer
    }
}

/// Wall time since `start` in nanoseconds, for the phase sums of
/// [`SessionStats`].
fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

impl<'a> Session<'a> {
    /// Opens a session with the default configuration directly over a
    /// database — for callers that manage the database themselves. Such a
    /// session has no plan cache: every prepare runs the whole pipeline.
    pub fn new(db: &'a Database) -> Session<'a> {
        Session::with_config(db, SessionConfig::default())
    }

    /// Opens a session with an explicit configuration.
    pub fn with_config(db: &'a Database, config: SessionConfig) -> Session<'a> {
        let mut executor = Executor::new(db)
            .with_sublink_memo(config.sublink_memo)
            .with_memo_capacity(config.memo_capacity)
            .with_memo_retention(config.retain_memo)
            .with_batching(config.batching)
            .with_columnar(config.columnar)
            .with_memory_budget(config.memory_budget)
            .with_spill(config.spill)
            .with_spill_dir(config.spill_dir.clone());
        if let Some(plan) = &config.fault_plan {
            executor = executor.with_fault_plan(plan.clone());
        }
        Session {
            db,
            config,
            executor,
            plan_cache: None,
        }
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The database this session reads.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// The session's executor, for low-level execution. Its counters are
    /// the session's: [`Session::stats`] is [`Executor::stats`].
    pub fn executor(&self) -> &Executor<'a> {
        &self.executor
    }

    /// A snapshot of the session's counters — its executor's registry,
    /// which the pipeline phases bump too (see [`SessionStats`]).
    pub fn stats(&self) -> SessionStats {
        self.executor.stats()
    }
    /// Prepares a SQL statement: parse → bind → provenance rewrite (if the
    /// query carries the `SELECT PROVENANCE` marker) → optimize → compile,
    /// once. The returned [`Prepared`] executes many times via
    /// [`Session::execute`], [`Session::rows`] or
    /// [`Session::provenance_rows`].
    ///
    /// Sessions opened from an [`Engine`] first consult the engine's
    /// cross-session plan cache: a statement any session of this engine
    /// already prepared (under the same strategy) is
    /// returned as a shared handle with zero pipeline work — see
    /// [`SessionStats::plan_cache_hits`] and [`Engine::plan_cache_stats`].
    pub fn prepare(&self, sql: &str) -> Result<Arc<Prepared>, PermError> {
        self.prepare_sql(sql, false)
    }

    /// Prepares a SQL statement for provenance computation whether or not
    /// it carries the `PROVENANCE` keyword. Plan-cached like
    /// [`Session::prepare`] (under a distinct cache key, so the same text
    /// prepared plain and forced-provenance are two entries).
    pub fn prepare_provenance(&self, sql: &str) -> Result<Arc<Prepared>, PermError> {
        self.prepare_sql(sql, true)
    }

    fn prepare_sql(&self, sql: &str, forced_provenance: bool) -> Result<Arc<Prepared>, PermError> {
        let Some(cache) = self.plan_cache else {
            self.executor.record(|s| s.plan_cache_misses += 1);
            return Ok(Arc::new(self.prepare_fresh(sql, forced_provenance)?));
        };
        let key = PlanKey {
            sql: sql.to_owned(),
            forced_provenance,
            strategy: self.config.strategy,
            memo_capacity: self.config.memo_capacity,
        };
        if let Some(hit) = cache.get(&key) {
            self.executor.record(|s| s.plan_cache_hits += 1);
            return Ok(hit);
        }
        self.executor.record(|s| s.plan_cache_misses += 1);
        let prepared = Arc::new(self.prepare_fresh(sql, forced_provenance)?);
        // `insert` returns the canonical statement — ours, unless another
        // session won the race while we were compiling.
        Ok(cache.insert(key, prepared))
    }

    fn prepare_fresh(&self, sql: &str, forced_provenance: bool) -> Result<Prepared, PermError> {
        let (plan, wants_provenance) = self.parse_and_bind(sql)?;
        self.prepare_inner(Some(sql), plan, forced_provenance || wants_provenance)
    }

    /// Prepares an algebra plan directly (no SQL front end). Plan
    /// preparations bypass the plan cache — there is no text to key on —
    /// so each call compiles a new statement with an empty memo: keep the
    /// returned statement and re-execute it rather than re-preparing in a
    /// loop. The statement shares `plan`'s subtrees; only its root operator
    /// is copied.
    pub fn prepare_plan(&self, plan: &Plan) -> Result<Arc<Prepared>, PermError> {
        Ok(Arc::new(self.prepare_inner(None, plan.clone(), false)?))
    }

    /// Prepares an algebra plan for provenance computation.
    pub fn prepare_provenance_plan(&self, plan: &Plan) -> Result<Arc<Prepared>, PermError> {
        Ok(Arc::new(self.prepare_inner(None, plan.clone(), true)?))
    }

    fn parse_and_bind(&self, sql: &str) -> Result<(Plan, bool), PermError> {
        let start = Instant::now();
        let parsed = perm_sql::parse_query(sql)?;
        let ns = elapsed_ns(start);
        self.executor.record(|s| {
            s.parses += 1;
            s.parse_ns += ns;
        });
        let provenance = parsed.provenance;
        let start = Instant::now();
        let bound = perm_sql::bind(self.db, &parsed)?;
        let ns = elapsed_ns(start);
        self.executor.record(|s| {
            s.binds += 1;
            s.bind_ns += ns;
        });
        Ok((bound.plan, provenance))
    }

    fn prepare_inner(
        &self,
        sql: Option<&str>,
        plan: Plan,
        provenance: bool,
    ) -> Result<Prepared, PermError> {
        let param_count = perm_algebra::visit::param_count(&plan);
        let (plan, descriptor) = if provenance {
            let start = Instant::now();
            let rewritten = ProvenanceQuery::new(self.db, &plan)
                .strategy(self.config.strategy)
                .rewrite()?;
            let ns = elapsed_ns(start);
            self.executor.record(|s| {
                s.rewrites += 1;
                s.rewrite_ns += ns;
            });
            (rewritten.plan, Some(rewritten.descriptor))
        } else {
            (plan, None)
        };
        let start = Instant::now();
        let (optimized, report) = perm_optimize::optimize(&plan);
        let ns = elapsed_ns(start);
        self.executor.record(|s| {
            s.optimizer_rules_fired += report.rules_fired();
            s.sublinks_decorrelated += report.sublinks_decorrelated;
            s.optimize_ns += ns;
        });
        let start = Instant::now();
        let compiled = self.executor.prepare(&optimized)?;
        let ns = elapsed_ns(start);
        self.executor.record(|s| s.compile_ns += ns);
        let schema = compiled.schema().clone();
        Ok(Prepared {
            sql: sql.map(str::to_owned),
            bound_plan: plan,
            optimizer: report,
            plan: optimized,
            compiled,
            descriptor,
            schema,
            param_count,
        })
    }

    /// Binds `params`, checks the arity against the statement, and, when a
    /// deadline applies (the per-call override, else
    /// [`SessionConfig::deadline`]), installs a *fresh* [`CancelToken`] for
    /// it, so each execution gets the full time budget. The execution takes
    /// whatever token is installed, so none outlives it.
    fn bind_checked(
        &self,
        prepared: &Prepared,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> Result<(), PermError> {
        if params.len() != prepared.param_count {
            return Err(PermError::Param(format!(
                "statement expects {} parameter{}, got {}",
                prepared.param_count,
                if prepared.param_count == 1 { "" } else { "s" },
                params.len()
            )));
        }
        if let Some(d) = deadline.or(self.config.deadline) {
            self.executor
                .set_cancel_token(Some(CancelToken::with_deadline(d)));
        }
        self.executor.bind_params(params.to_vec());
        Ok(())
    }

    /// Counts one execution and adds `ns` of it to
    /// [`SessionStats::execute_ns`].
    fn count_execution(&self, ns: u64) {
        self.executor.record(|s| {
            s.executions += 1;
            s.execute_ns += ns;
        });
    }

    /// Executes a prepared statement with the given parameter binding,
    /// materialising the full result. No parse/bind/rewrite/compile work
    /// happens here — only execution (assertable via [`Session::stats`]).
    pub fn execute(&self, prepared: &Prepared, params: &[Value]) -> Result<Relation, PermError> {
        self.execute_inner(prepared, params, None)
    }

    /// [`Session::execute`] with a per-call deadline that overrides
    /// [`SessionConfig::deadline`] for this execution only. The execution
    /// is cancelled cooperatively at the first batch boundary past the
    /// deadline and returns [`perm_exec::ExecError::Cancelled`] (wrapped in
    /// [`PermError::Exec`]); no partial result escapes.
    pub fn execute_with_deadline(
        &self,
        prepared: &Prepared,
        params: &[Value],
        deadline: Duration,
    ) -> Result<Relation, PermError> {
        self.execute_inner(prepared, params, Some(deadline))
    }

    fn execute_inner(
        &self,
        prepared: &Prepared,
        params: &[Value],
        deadline: Option<Duration>,
    ) -> Result<Relation, PermError> {
        self.bind_checked(prepared, params, deadline)?;
        let start = Instant::now();
        let result = self.executor.execute_compiled(&prepared.compiled)?;
        self.count_execution(elapsed_ns(start));
        Ok(result)
    }

    /// The [`CancelToken`] of the session's **next** execution, installing
    /// one if none is present: cancelling it — from any thread — stops that
    /// execution at its next batch boundary, and nothing after it (every
    /// execution takes the installed token; see
    /// [`Executor::set_cancel_token`]). When a deadline applies
    /// ([`SessionConfig::deadline`] or [`Session::execute_with_deadline`]),
    /// the execution takes a fresh deadline token instead and the handle
    /// governs nothing. An open cursor's own token is [`Rows::cancel_handle`].
    pub fn cancel_handle(&self) -> CancelToken {
        self.executor.cancel_handle()
    }

    /// Opens a pull-based cursor over a prepared statement: tuples are
    /// produced on demand, so a consumer that stops early stops paying for
    /// input it never looks at. The cursor pulls the same pipeline
    /// [`Session::execute`] drains — same rows, same errors after the same
    /// rows, and a `LIMIT` above every pipeline breaker lazy on both. The
    /// cursor owns its execution — this
    /// parameter binding, the [`SessionConfig::deadline`] if one is set, and
    /// a cancel token of its own ([`Rows::cancel_handle`]) — so other
    /// statements may run on the session while it is open, and neither
    /// their deadlines nor their cancellation reach the stream, nor its
    /// cancellation them.
    pub fn rows<'s>(
        &'s self,
        prepared: &'s Prepared,
        params: &[Value],
    ) -> Result<Rows<'s, 'a>, PermError> {
        self.bind_checked(prepared, params, None)?;
        let rows = self.executor.open(&prepared.compiled)?;
        // A cursor's pulls happen after this returns and are not timed.
        self.count_execution(0);
        Ok(rows)
    }

    /// `EXPLAIN`: prepares `sql` (plan-cached like [`Session::prepare`])
    /// and returns the shape of its physical plan as a [`QueryProfile`]
    /// whose counters are all zero — **nothing is executed**. The same
    /// tree, annotated with actuals, comes back from
    /// [`Session::explain_analyze`]; render either with
    /// [`QueryProfile::render`] or encode it with
    /// [`QueryProfile::to_json`].
    pub fn explain(&self, sql: &str) -> Result<QueryProfile, PermError> {
        let prepared = self.prepare(sql)?;
        let mut profile = perm_exec::profile::ProfileTree::for_plan(&prepared.compiled).snapshot();
        Self::annotate_optimizer(&mut profile, &prepared);
        Ok(profile)
    }

    /// Attaches the bound-vs-optimized logical plan diff and the rule
    /// summary to an `EXPLAIN` profile.
    fn annotate_optimizer(profile: &mut QueryProfile, prepared: &Prepared) {
        profile.bound_plan = Some(perm_algebra::display::explain(prepared.bound_plan()));
        profile.optimized_plan = Some(perm_algebra::display::explain(prepared.plan()));
        profile.optimizer = Some(prepared.optimizer_report().summary());
    }

    /// `EXPLAIN ANALYZE`: prepares and executes a parameter-free `sql`
    /// statement and returns its [`QueryProfile`] — the physical plan tree
    /// annotated with per-operator actuals (invocations, rows in/out,
    /// batches, wall time, memo hits/misses, spill bytes/partitions,
    /// columnar-fallback rows). The result rows are discarded, as in SQL
    /// `EXPLAIN ANALYZE`; use [`Session::execute_profiled`] to keep them
    /// (a streaming cursor is profiled by [`Executor::open_profiled`]; it
    /// pulls the pipeline this drains, so drained to the end it records the
    /// same invocations and output rows per node).
    pub fn explain_analyze(&self, sql: &str) -> Result<QueryProfile, PermError> {
        let prepared = self.prepare(sql)?;
        let (_, mut profile) = self.execute_profiled(&prepared, &[])?;
        Self::annotate_optimizer(&mut profile, &prepared);
        Ok(profile)
    }

    /// Executes a prepared statement with profiling armed, returning both
    /// the result and the [`QueryProfile`] of this execution. Semantically
    /// identical to [`Session::execute`] — same rows, same errors, same
    /// memo/deadline behaviour — plus per-operator actuals. Profiling cost
    /// is a strided clock probe per operator invocation (see the
    /// `perm_exec::profile` docs); the benchmark reports it as
    /// `proc.trace_overhead_pct`.
    pub fn execute_profiled(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<(Relation, QueryProfile), PermError> {
        self.bind_checked(prepared, params, None)?;
        let start = Instant::now();
        let (relation, profile) = self.executor.execute_profiled(&prepared.compiled)?;
        self.count_execution(elapsed_ns(start));
        Ok((relation, profile))
    }

    /// Executes a provenance statement and returns the structured witness
    /// view: each output tuple with its witness tuples grouped per
    /// base-relation access, instead of a flat relation whose `prov_r_a`
    /// column names the caller would have to string-match.
    pub fn provenance_rows(
        &self,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<ProvenanceRows, PermError> {
        let Some(descriptor) = &prepared.descriptor else {
            return Err(PermError::Param(
                "statement was not prepared for provenance; use \
                 `Session::prepare_provenance` (or the `SELECT PROVENANCE` marker)"
                    .into(),
            ));
        };
        let relation = self.execute(prepared, params)?;
        Ok(ProvenanceRows::new(relation, descriptor))
    }

    /// Ad-hoc convenience: prepares and executes a parameter-free SQL
    /// statement once, honouring the `SELECT PROVENANCE` marker. For
    /// repeated or parameterized execution, [`Session::prepare`] and keep
    /// the [`Prepared`] around. (On engine-attached sessions the transient
    /// statement still lands in the cross-session plan cache, so repeated
    /// ad-hoc texts at least stop paying for compilation.) The statement's
    /// memo lives as long as the statement: on a session without an engine
    /// it is dropped on return; a cached statement keeps it warm for the
    /// next `run` of the same text. No other statement's memo is touched.
    pub fn run(&self, sql: &str) -> Result<Relation, PermError> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared, &[])
    }
}

/// A group of provenance attributes inside the flat rewritten tuple: which
/// base-relation access it witnesses and where its values sit.
#[derive(Debug, Clone)]
struct WitnessGroup {
    table: String,
    occurrence: usize,
    start: usize,
    arity: usize,
}

/// The structured view of a provenance result: every output tuple paired
/// with its witness tuples, grouped per base-relation access of the query
/// (in [`ProvenanceDescriptor`] order). Built by
/// [`Session::provenance_rows`].
#[derive(Debug, Clone)]
pub struct ProvenanceRows {
    schema: Schema,
    original_arity: usize,
    groups: Vec<WitnessGroup>,
    tuples: Vec<Tuple>,
}

impl ProvenanceRows {
    fn new(relation: Relation, descriptor: &ProvenanceDescriptor) -> ProvenanceRows {
        let schema = relation.schema().clone();
        let original_arity = schema.arity() - descriptor.attr_count();
        let mut groups = Vec::with_capacity(descriptor.len());
        let mut start = original_arity;
        for entry in descriptor.entries() {
            let arity = entry.prov_schema.arity();
            groups.push(WitnessGroup {
                table: entry.table.clone(),
                occurrence: entry.occurrence,
                start,
                arity,
            });
            start += arity;
        }
        ProvenanceRows {
            schema,
            original_arity,
            groups,
            tuples: relation.into_tuples(),
        }
    }

    /// The full (flat) schema: original attributes then provenance
    /// attributes.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema of the original query (provenance attributes stripped).
    pub fn output_schema(&self) -> Schema {
        Schema::new(self.schema.attributes()[..self.original_arity].to_vec())
    }

    /// Number of result rows (one per witness *combination*, as in the
    /// paper's single-relation representation).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over the structured rows.
    pub fn iter(&self) -> impl Iterator<Item = ProvenanceRow<'_>> {
        self.tuples
            .iter()
            .map(move |tuple| ProvenanceRow { rows: self, tuple })
    }
}

/// One row of a [`ProvenanceRows`] result: the original output tuple plus
/// one witness slice per base-relation access.
#[derive(Clone, Copy)]
pub struct ProvenanceRow<'r> {
    rows: &'r ProvenanceRows,
    tuple: &'r Tuple,
}

impl<'r> ProvenanceRow<'r> {
    /// The original output tuple (provenance attributes stripped).
    pub fn output(&self) -> &'r [Value] {
        &self.tuple.values()[..self.rows.original_arity]
    }

    /// The witnesses of this row, one per base-relation access, in
    /// descriptor order.
    pub fn witnesses(&self) -> impl Iterator<Item = Witness<'r>> + '_ {
        let tuple = self.tuple;
        self.rows.groups.iter().map(move |group| Witness {
            table: &group.table,
            occurrence: group.occurrence,
            values: &tuple.values()[group.start..group.start + group.arity],
        })
    }

    /// The witness for the `i`-th base-relation access of the descriptor.
    pub fn witness(&self, i: usize) -> Option<Witness<'r>> {
        let group = self.rows.groups.get(i)?;
        Some(Witness {
            table: &group.table,
            occurrence: group.occurrence,
            values: &self.tuple.values()[group.start..group.start + group.arity],
        })
    }
}

/// The contribution of one base-relation access to one output tuple: either
/// a witness tuple of that relation, or no contribution (the rewrite's
/// NULL-padded outer-join side).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Witness<'r> {
    /// Catalog name of the base relation.
    pub table: &'r str,
    /// Occurrence index of this access within the query (multiple accesses
    /// of one relation are distinct provenance sources).
    pub occurrence: usize,
    values: &'r [Value],
}

impl<'r> Witness<'r> {
    /// The witness tuple, or `None` when this base-relation access did not
    /// contribute to the output row (every provenance attribute is NULL —
    /// the representation the rewrites share with the paper).
    pub fn tuple(&self) -> Option<&'r [Value]> {
        if self.values.iter().all(|v| v.is_null()) {
            None
        } else {
            Some(self.values)
        }
    }

    /// The raw provenance attribute values, NULL-padded or not.
    pub fn values(&self) -> &'r [Value] {
        self.values
    }
}
