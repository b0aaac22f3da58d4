//! Plan execution: the [`Executor`] — the configuration, counters and
//! governor every execution shares — and the entries of its one compiled
//! driver (drained by [`Executor::execute_compiled`], pulled by a
//! [`crate::Rows`] cursor) and its reference interpreter.
//!
//! What one execution owns is a value, not executor state: each entry
//! ([`Executor::execute_compiled`], [`Executor::execute_profiled`],
//! [`Executor::open`], [`Executor::open_profiled`],
//! [`Executor::execute_unoptimized`], [`Interpreter::new`]) builds an
//! `Execution` holding a snapshot of the bound parameters, the cancel token
//! it took from the executor and, when profiled, the profile tree. Nothing
//! is armed on the executor and nothing is re-asserted, so a cursor and
//! other statements interleave on one executor without seeing each other's
//! parameters, token or profile.
//!
//! Execution of a top-level plan through [`Executor::execute`] goes through
//! two stages, over exactly the plan it is given (the optimizer,
//! `perm_optimize::optimize`, runs before, never inside):
//!
//! 1. **Compilation** ([`crate::compile`]) — a one-time pass per operator
//!    that resolves every column reference to a positional *slot*
//!    (scope depth + attribute index) against the concrete schema chain, so
//!    the evaluator does integer indexing instead of name lookup,
//!    and computes each sublink's *correlation signature* (its free column
//!    references, [`perm_algebra::visit::free_correlated_columns`]) resolved
//!    to outer-scope slots.
//! 2. **Compiled evaluation** with a **parameterized sublink memo**: what
//!    a sublink's verdict needs from its result — whether an `EXISTS` found
//!    a row, a scalar's value, or an `ANY`/`ALL` result summarised into a
//!    [`crate::QuantProbe`] — is cached in the compiled statement's own memo
//!    under `(sublink identity, database version, encoded values of its
//!    correlated bindings)` as one shared `Arc`, so an `EXISTS` or scalar
//!    entry does not grow with the sublink's result and each outer row of an
//!    `ANY`/`ALL` costs one hash probe instead of a fold. A correlated
//!    sublink over an outer relation with *k* distinct binding values
//!    therefore executes *k* times instead of once per outer tuple; an
//!    uncorrelated sublink (empty signature) degenerates to the classic
//!    PostgreSQL "InitPlan" behaviour of one execution per query, and is
//!    fetched once per batch rather than once per row. The memos can be
//!    switched off with [`Executor::with_sublink_memo`] for measurements.
//!
//! The reference [`Interpreter`] ([`Executor::execute_unoptimized`])
//! evaluates a plan exactly as written; the tracer in `perm-core` builds on
//! it, and the strategy-equivalence tests cross-check compiled against
//! interpreted results. Both drivers delegate every operator loop — joins
//! (hashed and nested-loop, with left-outer padding), aggregation, sorting,
//! set operations, projection/selection/limit — to the shared
//! `crate::physical` module, so no operator body is implemented twice; the
//! drivers differ only in the batch-evaluator closures they pass (name
//! lookup through an [`crate::Env`] chain per row vs. the compiled
//! evaluator over the whole batch, with outer scopes as a
//! [`crate::compile::Frame`] chain). An
//! interpreter resolves correlation signatures *at runtime* and memoizes
//! per binding in maps of its own that live for one execution, so the
//! executor keeps nothing keyed by a plan. It folds each `ANY`/`ALL`
//! comparison over the result rows ([`crate::eval::fold_quantified`]): it
//! is the reference the probe is tested against.

use crate::compile::CompiledPlan;
use crate::interpreter::Interpreter;
use crate::profile::ProfileTree;
use crate::resilience::{CancelToken, Cancellation, FaultPlan, Governor};
use crate::{ExecError, Result};
use perm_algebra::builder::split_conjuncts;
use perm_algebra::visit::{param_count, side_of, Side};
use perm_algebra::{Expr, Plan};
use perm_storage::{Database, Relation, Schema, Value};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

/// Executes plans against an in-memory database.
pub struct Executor<'a> {
    db: &'a Database,
    /// The resilience governor: fault plan / memory budget / spill store,
    /// plus the counter registry [`Executor::stats`] snapshots.
    /// Polled, with the execution's cancel token, at batch boundaries by
    /// `crate::physical`, at cursor refills and at memoized-sublink entry.
    pub(crate) governor: Governor,
    /// The query-parameter vector (`$1` is index 0) the next executions
    /// snapshot ([`Executor::bind_params`]). Shared as an `Rc`, so the
    /// snapshot is a reference-count bump.
    params: RefCell<Rc<[Value]>>,
    /// The cancel token the next execution takes
    /// ([`Executor::set_cancel_token`]).
    cancel: Cell<Option<CancelToken>>,
    /// Whether the parameterized memos may be consulted for correlated
    /// sublinks.
    pub(crate) memo_enabled: Cell<bool>,
    /// Whether a statement's memo survives from one execution to the next
    /// (see [`Executor::with_memo_retention`]).
    retain_memo: Cell<bool>,
    /// The entry bound of the memo of each statement [`Executor::prepare`]
    /// compiles (see [`Executor::with_memo_capacity`]).
    memo_capacity: Cell<Option<usize>>,
    /// Whether the compiled evaluator takes whole batches at once (the
    /// default) or each live row as a batch of one (a mode of the
    /// differential tests). Read by `ceval_batch` and the bare-slot
    /// bypasses alone; results are identical either way.
    pub(crate) batch_enabled: Cell<bool>,
    /// Whether depth-0 slots of the vectorized compiled evaluator load
    /// typed columnar lanes (the default) or `Value` lanes (a mode of the
    /// differential tests, in which every kernel takes its scalar
    /// fallback). Results are identical either way.
    pub(crate) columnar_enabled: Cell<bool>,
}

/// One execution of a plan on an [`Executor`], built by its entry from what
/// the caller bound: a snapshot of the parameter vector, the cancel token
/// installed on the executor (taken, so it governs this execution alone)
/// and, for a profiled entry, the profile tree. The compiled driver, a
/// cursor, the interpreter and — through their `OpProbe` — the physical
/// operators read these here, never from executor slots, so executions
/// interleaved on one executor cannot see each other's. A [`crate::Rows`]
/// cursor owns its execution for as long as it lives.
pub(crate) struct Execution<'e, 'a> {
    /// The executor: database, configuration, counters and governor.
    pub(crate) ex: &'e Executor<'a>,
    /// The parameter vector bound when the execution began.
    pub(crate) params: Rc<[Value]>,
    /// The cancel token the execution took, if one was installed.
    pub(crate) cancel: Option<Cancellation>,
    /// The profile tree of a profiled execution: its operator nodes are
    /// threaded positionally by the drivers, its sublink subtrees looked up
    /// by id at the memoized-sublink seam.
    pub(crate) profile: Option<Rc<ProfileTree>>,
}

impl<'e, 'a> Execution<'e, 'a> {
    /// Begins an execution on `ex`: snapshots the bound parameters and
    /// takes the installed cancel token.
    pub(crate) fn new(ex: &'e Executor<'a>, profile: Option<Rc<ProfileTree>>) -> Execution<'e, 'a> {
        Execution {
            ex,
            params: Rc::clone(&ex.params.borrow()),
            cancel: ex.cancel.take().map(Cancellation::new),
            profile,
        }
    }

    /// A batch-boundary cancellation checkpoint of this execution.
    pub(crate) fn checkpoint(&self, operator: &str) -> Result<()> {
        self.ex.governor.checkpoint(operator, self.cancel.as_ref())
    }

    /// The precondition every execution entry checks once, before any
    /// operator runs: at least `needed` parameters are bound.
    pub(crate) fn check_params_bound(&self, needed: usize) -> Result<()> {
        match needed.checked_sub(1) {
            Some(highest) => self.param_value(highest).map(drop),
            None => Ok(()),
        }
    }

    /// Reads the value bound to parameter index `index` (0-based). The
    /// binding is present by [`Execution::check_params_bound`]; the error is
    /// kept for evaluations that did not start at an execution entry.
    pub(crate) fn param_value(&self, index: usize) -> Result<Value> {
        self.params.get(index).cloned().ok_or_else(|| {
            ExecError::Param(format!(
                "parameter ${} is not bound ({} parameter{} supplied)",
                index + 1,
                self.params.len(),
                if self.params.len() == 1 { "" } else { "s" }
            ))
        })
    }
}

impl<'a> Executor<'a> {
    /// Creates an executor over a database. Sublink memoization is enabled;
    /// use [`Executor::with_sublink_memo`] to switch it off. The first
    /// executor of a process also tells glibc to keep freed heap for the
    /// next query instead of returning it to the kernel (the `heap` module).
    pub fn new(db: &'a Database) -> Executor<'a> {
        crate::heap::retain_freed_heap();
        Executor {
            db,
            governor: Governor::new(),
            params: RefCell::new(Rc::from(Vec::new())),
            cancel: Cell::new(None),
            memo_enabled: Cell::new(true),
            retain_memo: Cell::new(true),
            memo_capacity: Cell::new(None),
            batch_enabled: Cell::new(true),
            columnar_enabled: Cell::new(true),
        }
    }

    /// Enables or disables vectorized batch evaluation on the compiled path
    /// (enabled by default). Disabled, the one compiled evaluator runs every
    /// live row as a batch of one — no column block, nothing counted on
    /// [`crate::SessionStats::vectorized_batches`] — the pre-batching cost
    /// profile, kept as a mode of `tests/differential.rs` and
    /// `tests/profile_differential.rs`. Results, errors and
    /// `operators_evaluated` are identical in both modes.
    pub fn with_batching(self, enabled: bool) -> Executor<'a> {
        self.batch_enabled.set(enabled);
        self
    }

    /// Enables or disables typed lanes on the vectorized compiled path
    /// (enabled by default). Disabled, only the leaves change: a depth-0
    /// slot loads a `ColumnVec::Values` lane instead of a typed one (and
    /// never touches the batch's column block, so never a stored lane), no
    /// `slot ⟨cmp⟩ constant` conjunct narrows in place over a lane, and
    /// every kernel takes its scalar fallback inside the same
    /// `AND`/`OR`/`CASE` narrowing the default runs — kept as a mode of the differential tests, which then
    /// compare the typed kernels against the scalar appliers. With
    /// batching off it changes the leaves of each one-row batch the same
    /// way. Results, errors and `operators_evaluated` are identical in both
    /// modes.
    pub fn with_columnar(self, enabled: bool) -> Executor<'a> {
        self.columnar_enabled.set(enabled);
        self
    }

    /// Enables or disables the parameterized sublink memos (enabled by
    /// default) on both execution paths. Disabling them makes every
    /// correlated sublink execute once per outer tuple again — the "memo
    /// off" baseline of `tests/compiled_equivalence.rs` (the benchmark
    /// reports the memo's effect as `execute.memo_hit_rate`); the
    /// per-query InitPlan caching of *uncorrelated* sublinks stays on
    /// either way, mirroring what the PostgreSQL engine underneath the
    /// original Perm system always does.
    pub fn with_sublink_memo(self, enabled: bool) -> Executor<'a> {
        self.memo_enabled.set(enabled);
        self
    }

    /// Bounds the memo of each statement this executor prepares (the
    /// compiled path's sublink summaries) to at most `capacity` entries,
    /// evicting least-recently-used entries — for high-cardinality
    /// correlations. `None` (the default) keeps the memos unbounded. A
    /// statement keeps the bound it was prepared with, whichever executor
    /// runs it. The reference interpreter's memo lives for one execution
    /// and is never bounded.
    pub fn with_memo_capacity(self, capacity: Option<usize>) -> Executor<'a> {
        self.memo_capacity.set(capacity);
        self
    }

    /// Chooses whether a statement's memo survives from one execution to
    /// the next. Retention (the default) is what a prepared statement
    /// wants: re-executing the same [`CompiledPlan`] — same sublink ids, the
    /// bound parameter values and the database version folded into every
    /// memo key — reuses entries from earlier executions, on this executor
    /// or any other. With `retain` off, every execution entry
    /// ([`Executor::execute_compiled`], [`Executor::execute_profiled`],
    /// [`Executor::open`], [`Executor::open_profiled`]) clears the
    /// statement's memo first — for every holder of the statement.
    pub fn with_memo_retention(self, retain: bool) -> Executor<'a> {
        self.retain_memo.set(retain);
        self
    }

    /// Installs a fresh cooperative [`CancelToken`] that trips once
    /// `deadline` has passed, for the next execution only (see
    /// [`Executor::set_cancel_token`]). The token is polled at batch
    /// boundaries, cursor refills and memoized-sublink entry; once it trips,
    /// that execution fails with [`ExecError::Cancelled`] within one batch
    /// worth of work.
    pub fn with_deadline(self, deadline: Duration) -> Executor<'a> {
        self.set_cancel_token(Some(CancelToken::with_deadline(deadline)));
        self
    }

    /// Bounds the bytes this executor may hold in growing operator state
    /// (hash-join build tables and candidate buffers, aggregation groups,
    /// sort buffers) plus the sublink memos of the statements it runs. On
    /// pressure the memos are reclaimed first — losing only speed — and
    /// the query fails with [`ExecError::ResourceExhausted`] only when that
    /// does not free enough. `None` (the default) disables accounting
    /// entirely.
    pub fn with_memory_budget(self, bytes: Option<u64>) -> Executor<'a> {
        self.governor.set_budget(bytes);
        self
    }

    /// Enables spill-to-disk degradation (disabled by default): under
    /// budget pressure that dropping the memos does not relieve, the
    /// growing operators go out of core (grace hash join, external merge
    /// sort, partitioned aggregation) instead of failing, demoting
    /// [`ExecError::ResourceExhausted`] to a last resort. Results are bag-
    /// and order-identical to in-memory execution; only the spill counters
    /// of [`crate::SessionStats`] can tell the difference.
    pub fn with_spill(self, enabled: bool) -> Executor<'a> {
        self.governor.set_spill_enabled(enabled);
        self
    }

    /// Base directory for spill files (`None`, the default, uses the system
    /// temp dir). The executor creates a process-unique subdirectory inside
    /// it and removes the subdirectory on drop.
    pub fn with_spill_dir(self, dir: Option<std::path::PathBuf>) -> Executor<'a> {
        self.governor.set_spill_dir(dir);
        self
    }

    /// Installs a deterministic [`FaultPlan`] that fires a cancellation,
    /// budget exhaustion or panic at the N-th checkpoint / memo-insert /
    /// operator event — the crash-consistency test harness.
    pub fn with_fault_plan(self, plan: FaultPlan) -> Executor<'a> {
        self.governor.set_fault_plan(Some(plan));
        self
    }

    /// Installs the cancel token (or removes it with `None`) that governs
    /// the **next execution only**: every execution entry
    /// ([`Executor::execute`], [`Executor::execute_compiled`],
    /// [`Executor::execute_profiled`], [`Executor::open`] /
    /// [`Executor::open_profiled`], [`Executor::execute_unoptimized`],
    /// [`Interpreter::new`]) takes the installed token, so a cancel or an
    /// expired deadline never leaks into a later execution, and a token
    /// taken by an open cursor stops that cursor and nothing else.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        self.cancel.set(token);
    }

    /// The cancel token the next execution will take, creating (and
    /// installing) a fresh one if none is installed: cancelling it stops
    /// that execution — one already running is governed by the token it
    /// took (see [`Executor::set_cancel_token`]; an open cursor's own token
    /// is `Rows::cancel_handle`).
    pub fn cancel_handle(&self) -> CancelToken {
        let token = self.cancel.take().unwrap_or_default();
        self.cancel.set(Some(token.clone()));
        token
    }

    /// Binds the query-parameter vector (`$1` is `params[0]`) that later
    /// executions use: each execution entry snapshots the vector bound when
    /// it begins, so rebinding never changes one already running — an open
    /// cursor keeps its binding. Parameters stay bound until rebound; plans
    /// that reference no parameters ignore the vector entirely.
    ///
    /// The contract is *bind before executing*: every execution entry
    /// ([`Executor::execute`], [`Executor::execute_compiled`],
    /// [`Executor::execute_profiled`], [`Executor::open`] /
    /// [`Executor::open_profiled`], [`Executor::execute_unoptimized`])
    /// returns [`ExecError::Param`] before its first operator runs when the
    /// vector is shorter than the highest `$n` the plan references; a longer
    /// vector is fine. A `$n` is therefore a constant lookup during
    /// evaluation, and the optimizer may treat it as one. (Executor-direct
    /// callers whose unbound `$n` sat behind an empty input or a
    /// short-circuit used to get a result and now get the error; sessions,
    /// which demand the exact count up front, see no change.)
    pub fn bind_params(&self, params: Vec<Value>) {
        *self.params.borrow_mut() = Rc::from(params);
    }

    /// What every compiled-plan execution entry does once, before any
    /// operator runs: begins the [`Execution`] (with `profile` for a
    /// profiled entry), checks its parameter binding, clears the
    /// statement's memo unless memos are retained, and lets the governor
    /// account the memo.
    pub(crate) fn begin_execution(
        &self,
        plan: &CompiledPlan,
        profile: Option<Rc<ProfileTree>>,
    ) -> Result<Execution<'_, 'a>> {
        let x = Execution::new(self, profile);
        x.check_params_bound(plan.param_count())?;
        if !self.retain_memo.get() {
            plan.memo().clear();
        }
        self.governor.track_statement_memo(plan.memo());
        Ok(x)
    }

    /// The database this executor reads from.
    pub fn database(&self) -> &Database {
        self.db
    }

    /// Compiles exactly the plan it is given for repeated execution:
    /// resolves all column references to slots and attaches correlation
    /// signatures (plus referenced parameter indices) to sublinks (see
    /// [`crate::compile`]). No operator is added, removed or reshaped: a
    /// selection over a cross product runs as one. The compiled plan
    /// carries its own sublink memo, bounded by
    /// [`Executor::with_memo_capacity`], which every executor running the
    /// plan shares. It records how many parameters `plan` needs bound; the
    /// execution entries check it. `prepare` never optimizes: callers run
    /// `perm_optimize::optimize` first (`Session` does, and checks the
    /// parameter count of the statement as written, since the optimizer
    /// may fold a `$n` away).
    pub fn prepare(&self, plan: &Plan) -> Result<CompiledPlan> {
        self.governor.count().compiles += 1;
        crate::compile::compile_plan(plan, param_count(plan), self.memo_capacity.get())
    }

    /// Executes a top-level plan, as given, through the compile/memoize
    /// pipeline: a fresh statement from [`Executor::prepare`], executed
    /// once, so its memo starts empty and is dropped with it. Callers that
    /// re-execute one statement, where memo reuse is the point, keep the
    /// [`CompiledPlan`] and call [`Executor::execute_compiled`].
    pub fn execute(&self, plan: &Plan) -> Result<Relation> {
        let compiled = self.prepare(plan)?;
        self.execute_compiled(&compiled)
    }

    /// Executes a plan exactly as given with a fresh reference
    /// [`Interpreter`]: no optimizer and no compilation. The interpreter
    /// memoizes each sublink per binding for this one execution (resolving
    /// correlation signatures at runtime instead of compile time), so it is
    /// the *semantics* reference — same results, same errors — not a
    /// memoization-free baseline; for that, combine it with
    /// [`Executor::with_sublink_memo`]`(false)`, which leaves only the
    /// InitPlan caching of uncorrelated sublinks.
    pub fn execute_unoptimized(&self, plan: &Plan) -> Result<Relation> {
        let interpreter = Interpreter::new(self);
        interpreter.x.check_params_bound(param_count(plan))?;
        interpreter.execute(plan, None)
    }
}

/// One hash-join key pair: a left-side expression, a right-side expression
/// and whether the comparison is null-safe (`=n`, in which case NULL keys
/// match NULL keys instead of being dropped).
pub(crate) struct EquiKey<'e> {
    pub(crate) left: &'e Expr,
    pub(crate) right: &'e Expr,
    pub(crate) null_safe: bool,
}

/// Extracts equality conjuncts `colL = colR` (or `colL =n colR`) from a join
/// condition, where one column names an attribute of the left schema alone
/// and the other one of the right schema alone ([`side_of`]).
pub(crate) fn extract_equi_keys<'e>(
    condition: &'e Expr,
    left: &Schema,
    right: &Schema,
) -> Vec<EquiKey<'e>> {
    let side = |e: &Expr| match e {
        Expr::Column { qualifier, name } => side_of(&[(*qualifier, *name)], left, right),
        _ => None,
    };
    let mut keys = Vec::new();
    for c in split_conjuncts(condition) {
        if let Expr::Binary {
            op,
            left: a,
            right: b,
        } = c
        {
            let null_safe = match op {
                perm_algebra::BinaryOp::Cmp(perm_algebra::CompareOp::Eq) => false,
                perm_algebra::BinaryOp::NullSafeEq => true,
                _ => continue,
            };
            match (side(a), side(b)) {
                (Some(Side::Left), Some(Side::Right)) => keys.push(EquiKey {
                    left: a,
                    right: b,
                    null_safe,
                }),
                (Some(Side::Right), Some(Side::Left)) => keys.push(EquiKey {
                    left: b,
                    right: a,
                    null_safe,
                }),
                _ => {}
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;
    use perm_algebra::builder::{
        self, all_sublink, any_sublink, col, count_star, eq, exists_sublink, lit, qcol,
        scalar_sublink, sum, PlanBuilder,
    };
    use perm_algebra::{CompareOp, ProjectItem, SetOpKind, SortKey};
    use perm_storage::{Attribute, DataType, Tuple};

    /// The example relations R(a,b) and S(c,d) from Figure 3 of the paper.
    fn figure3_db() -> Database {
        let mut db = Database::new();
        let r_schema = Schema::new(vec![
            Attribute::qualified("r", "a", DataType::Int),
            Attribute::qualified("r", "b", DataType::Int),
        ]);
        let s_schema = Schema::new(vec![
            Attribute::qualified("s", "c", DataType::Int),
            Attribute::qualified("s", "d", DataType::Int),
        ]);
        db.create_table(
            "r",
            Relation::from_rows(
                r_schema,
                vec![
                    vec![Value::Int(1), Value::Int(1)],
                    vec![Value::Int(2), Value::Int(1)],
                    vec![Value::Int(3), Value::Int(2)],
                ],
            ),
        )
        .unwrap();
        db.create_table(
            "s",
            Relation::from_rows(
                s_schema,
                vec![
                    vec![Value::Int(1), Value::Int(3)],
                    vec![Value::Int(2), Value::Int(4)],
                    vec![Value::Int(4), Value::Int(5)],
                ],
            ),
        )
        .unwrap();
        db
    }

    fn run(db: &Database, plan: &Plan) -> Relation {
        Executor::new(db).execute(plan).unwrap()
    }

    #[test]
    fn scan_select_project() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(eq(col("a"), lit(3)))
            .project_columns(&["b"])
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0], Tuple::new(vec![Value::Int(2)]));
    }

    #[test]
    fn projection_bag_vs_set() {
        let db = figure3_db();
        let bag = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["b"])
            .build();
        assert_eq!(run(&db, &bag).len(), 3);
        let set = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_distinct(vec![ProjectItem::column("b")])
            .build();
        assert_eq!(run(&db, &set).len(), 2);
    }

    #[test]
    fn cross_product_and_join() {
        let db = figure3_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let cross = PlanBuilder::scan(&db, "r")
            .unwrap()
            .cross(s.clone())
            .build();
        assert_eq!(run(&db, &cross).len(), 9);
        let join = PlanBuilder::scan(&db, "r")
            .unwrap()
            .join(s, eq(col("a"), col("c")))
            .build();
        let result = run(&db, &join);
        assert_eq!(result.len(), 2); // a=1 matches c=1, a=2 matches c=2
    }

    #[test]
    fn left_outer_join_pads_with_nulls() {
        let db = figure3_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let join = PlanBuilder::scan(&db, "r")
            .unwrap()
            .left_join(s, eq(col("a"), col("c")))
            .build();
        let result = run(&db, &join);
        assert_eq!(result.len(), 3);
        let unmatched: Vec<&Tuple> = result
            .tuples()
            .iter()
            .filter(|t| t.get(0) == &Value::Int(3))
            .collect();
        assert_eq!(unmatched.len(), 1);
        assert!(unmatched[0].get(2).is_null());
        assert!(unmatched[0].get(3).is_null());
    }

    #[test]
    fn join_with_non_equi_condition_uses_nested_loop() {
        let db = figure3_db();
        let s = PlanBuilder::scan(&db, "s").unwrap().build();
        let join = PlanBuilder::scan(&db, "r")
            .unwrap()
            .join(s, builder::cmp(CompareOp::Lt, col("a"), col("c")))
            .build();
        let result = run(&db, &join);
        // pairs with a < c: (1,*)x(2,4),(4,5) ; (2,*)x(4,5); (3,*)x(4,5)
        assert_eq!(result.len(), 4);
    }

    #[test]
    fn aggregate_with_and_without_groups() {
        let db = figure3_db();
        let global = PlanBuilder::scan(&db, "r")
            .unwrap()
            .aggregate(vec![], vec![sum(col("a"), "sum_a"), count_star("cnt")])
            .build();
        let result = run(&db, &global);
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.tuples()[0],
            Tuple::new(vec![Value::Int(6), Value::Int(3)])
        );

        let grouped = PlanBuilder::scan(&db, "r")
            .unwrap()
            .aggregate(vec![ProjectItem::column("b")], vec![sum(col("a"), "sum_a")])
            .build();
        let result = run(&db, &grouped);
        assert_eq!(result.len(), 2);
        let mut rows = result.sorted_tuples();
        rows.sort_by(|x, y| x.sort_key(y));
        assert_eq!(rows[0], Tuple::new(vec![Value::Int(1), Value::Int(3)]));
        assert_eq!(rows[1], Tuple::new(vec![Value::Int(2), Value::Int(3)]));
    }

    #[test]
    fn aggregate_over_empty_input_produces_single_row_without_groups() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(eq(col("a"), lit(999)))
            .aggregate(vec![], vec![count_star("cnt"), sum(col("a"), "s")])
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 1);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(0));
        assert!(result.tuples()[0].get(1).is_null());
    }

    #[test]
    fn set_operations() {
        let db = figure3_db();
        let r1 = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["b"])
            .build();
        let r2 = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["b"])
            .build();
        let union_all = PlanBuilder::from_plan(r1.clone())
            .set_op(SetOpKind::Union, true, r2.clone())
            .build();
        assert_eq!(run(&db, &union_all).len(), 6);
        let union = PlanBuilder::from_plan(r1.clone())
            .set_op(SetOpKind::Union, false, r2.clone())
            .build();
        assert_eq!(run(&db, &union).len(), 2);
        let except = PlanBuilder::from_plan(r1)
            .set_op(SetOpKind::Except, true, r2)
            .build();
        assert_eq!(run(&db, &except).len(), 0);
    }

    #[test]
    fn sort_and_limit() {
        let db = figure3_db();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .sort(vec![SortKey::desc(col("a"))])
            .limit(2)
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 2);
        assert_eq!(result.tuples()[0].get(0), &Value::Int(3));
        assert_eq!(result.tuples()[1].get(0), &Value::Int(2));
    }

    #[test]
    fn uncorrelated_any_sublink_in_selection() {
        let db = figure3_db();
        // q1 from Figure 3: σ_{a = ANY(Π_c(S))}(R)
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 2);
        assert!(result.contains(&Tuple::new(vec![Value::Int(1), Value::Int(1)])));
        assert!(result.contains(&Tuple::new(vec![Value::Int(2), Value::Int(1)])));
    }

    #[test]
    fn uncorrelated_all_sublink_in_selection() {
        let db = figure3_db();
        // q2 from Figure 3: σ_{c > ALL(Π_a(R))}(S) — only (4,5) qualifies.
        let sub = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project_columns(&["a"])
            .build();
        let q = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(all_sublink(col("c"), CompareOp::Gt, sub))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.tuples()[0],
            Tuple::new(vec![Value::Int(4), Value::Int(5)])
        );
    }

    #[test]
    fn correlated_exists_sublink() {
        let db = figure3_db();
        // σ_{EXISTS(σ_{c = a}(S))}(R): rows of R whose a appears as S.c.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "a")))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 2);
        assert!(!result.contains(&Tuple::new(vec![Value::Int(3), Value::Int(2)])));
    }

    #[test]
    fn correlated_scalar_sublink_in_projection() {
        let db = figure3_db();
        // Π_{a, (σ_{c=b}(Π_c(S)))}(R): the scalar sublink returns the single
        // matching c or NULL.
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project(vec![
                ProjectItem::column("a"),
                ProjectItem::new(scalar_sublink(sub), "match_c"),
            ])
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 3);
        let rows = result.sorted_tuples();
        assert_eq!(rows[0], Tuple::new(vec![Value::Int(1), Value::Int(1)]));
        assert_eq!(rows[1], Tuple::new(vec![Value::Int(2), Value::Int(1)]));
        assert_eq!(rows[2], Tuple::new(vec![Value::Int(3), Value::Int(2)]));
    }

    #[test]
    fn scalar_sublink_cardinality_violation_is_an_error() {
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .project(vec![ProjectItem::new(scalar_sublink(sub), "x")])
            .build();
        let err = Executor::new(&db).execute(&q).unwrap_err();
        assert!(matches!(err, ExecError::ScalarSublinkCardinality(_)));
    }

    #[test]
    fn nested_sublinks() {
        let db = figure3_db();
        // σ_{a = ANY(σ_{c = ANY(Π_d(S))}(Π_c(S)))}(R):
        // inner: c values that appear among d values of S -> {4}
        // outer: rows of R with a = 4 -> none. Then with d replaced by c the
        // middle level keeps all c's -> rows with a ∈ {1,2,4} -> 2 rows.
        let inner = PlanBuilder::scan_as(&db, "s", Some("s2"))
            .unwrap()
            .project_columns(&["d"])
            .build();
        let middle = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(any_sublink(col("c"), CompareOp::Eq, inner))
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, middle))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 0);
    }

    #[test]
    fn null_semantics_in_any_sublink() {
        // NOT IN with NULLs: x NOT IN (…, NULL, …) is never TRUE when no
        // element matches — the classic three-valued-logic trap.
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::from_names(&["x"]),
                vec![vec![Value::Int(1)], vec![Value::Int(5)]],
            ),
        )
        .unwrap();
        db.create_table(
            "u",
            Relation::from_rows(
                Schema::from_names(&["y"]),
                vec![vec![Value::Int(1)], vec![Value::Null]],
            ),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "u").unwrap().build();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(builder::not(any_sublink(col("x"), CompareOp::Eq, sub)))
            .build();
        let result = run(&db, &q);
        assert_eq!(result.len(), 0, "x NOT IN (1, NULL) must never be TRUE");
    }

    #[test]
    fn empty_sublink_results() {
        let db = figure3_db();
        let empty_sub = || {
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(eq(col("c"), lit(999)))
                .project_columns(&["c"])
                .build()
        };
        // ANY over empty is FALSE, ALL over empty is TRUE, EXISTS is FALSE.
        let any_q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, empty_sub()))
            .build();
        assert_eq!(run(&db, &any_q).len(), 0);
        let all_q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(all_sublink(col("a"), CompareOp::Eq, empty_sub()))
            .build();
        assert_eq!(run(&db, &all_q).len(), 3);
        let exists_q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(empty_sub()))
            .build();
        assert_eq!(run(&db, &exists_q).len(), 0);
    }

    #[test]
    fn values_plan_is_materialised() {
        let db = Database::new();
        let plan = Plan::Values {
            schema: Schema::from_names(&["x"]),
            rows: vec![
                Tuple::new(vec![Value::Int(7)]),
                Tuple::new(vec![Value::Null]),
            ],
        };
        let result = Executor::new(&db).execute(&plan).unwrap();
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn group_by_keeps_large_ints_distinct() {
        // Int(2⁵³) and Int(2⁵³ + 1) share an f64 view but are distinct
        // values; a lossy grouping key would merge their groups.
        const TWO_53: i64 = 1 << 53;
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("t", "x", DataType::Int)]),
                vec![
                    vec![Value::Int(TWO_53)],
                    vec![Value::Int(TWO_53 + 1)],
                    vec![Value::Int(TWO_53)],
                ],
            ),
        )
        .unwrap();
        let q = PlanBuilder::scan(&db, "t")
            .unwrap()
            .aggregate(vec![ProjectItem::column("x")], vec![count_star("n")])
            .build();
        for result in [
            Executor::new(&db).execute(&q).unwrap(),
            Executor::new(&db).execute_unoptimized(&q).unwrap(),
        ] {
            assert_eq!(result.len(), 2);
            let mut groups: Vec<(i64, i64)> = result
                .tuples()
                .iter()
                .map(|t| match (t.get(0), t.get(1)) {
                    (Value::Int(x), Value::Int(n)) => (*x, *n),
                    other => panic!("unexpected group row {other:?}"),
                })
                .collect();
            groups.sort_unstable();
            assert_eq!(groups, vec![(TWO_53, 2), (TWO_53 + 1, 1)]);
        }
    }

    #[test]
    fn hash_join_matches_date_keys_against_int_keys() {
        let mut db = Database::new();
        db.create_table(
            "d",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("d", "day", DataType::Date)]),
                vec![vec![Value::Date(3)], vec![Value::Date(9)]],
            ),
        )
        .unwrap();
        db.create_table(
            "n",
            Relation::from_rows(
                Schema::new(vec![Attribute::qualified("n", "num", DataType::Int)]),
                vec![vec![Value::Int(3)], vec![Value::Int(7)]],
            ),
        )
        .unwrap();
        let join = PlanBuilder::scan(&db, "d")
            .unwrap()
            .join(
                PlanBuilder::scan(&db, "n").unwrap().build(),
                eq(col("day"), col("num")),
            )
            .build();
        // The condition is a column-to-column equality, so this runs as a
        // hash join; the Date(3)/Int(3) pair must meet in one bucket because
        // the engine's equality coerces dates numerically.
        let hashed = run(&db, &join);
        assert_eq!(hashed.len(), 1);
        assert_eq!(
            hashed.tuples()[0],
            Tuple::new(vec![Value::Date(3), Value::Int(3)])
        );
        // Cross-check against the nested-loop path: force it by OR-ing an
        // always-false disjunct, which defeats equi-key extraction.
        let nested = PlanBuilder::scan(&db, "d")
            .unwrap()
            .join(
                PlanBuilder::scan(&db, "n").unwrap().build(),
                builder::or(eq(col("day"), col("num")), eq(lit(1), lit(2))),
            )
            .build();
        assert!(run(&db, &nested).bag_eq(&hashed));
    }

    #[test]
    fn aggregate_groups_date_keys_with_equal_int_keys() {
        let mut db = Database::new();
        db.create_table(
            "m",
            Relation::from_rows(
                Schema::new(vec![
                    Attribute::qualified("m", "k", DataType::Any),
                    Attribute::qualified("m", "v", DataType::Int),
                ]),
                vec![
                    vec![Value::Date(3), Value::Int(10)],
                    vec![Value::Int(3), Value::Int(20)],
                    vec![Value::Float(3.0), Value::Int(30)],
                    vec![Value::Int(4), Value::Int(40)],
                ],
            ),
        )
        .unwrap();
        let q = PlanBuilder::scan(&db, "m")
            .unwrap()
            .aggregate(vec![ProjectItem::column("k")], vec![sum(col("v"), "s")])
            .build();
        let result = run(&db, &q);
        // Date(3), Int(3) and Float(3.0) are null_safe_eq-equal and must
        // land in one group.
        assert_eq!(result.len(), 2);
        let sums: Vec<i64> = result
            .tuples()
            .iter()
            .map(|t| match t.get(1) {
                Value::Int(i) => *i,
                other => panic!("expected int sum, got {other:?}"),
            })
            .collect();
        assert!(sums.contains(&60) && sums.contains(&40));
    }

    #[test]
    fn sublink_cache_reuses_uncorrelated_results() {
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let ex = Executor::new(&db);
        ex.execute(&q).unwrap();
        // The uncorrelated sublink plan (project over scan) is evaluated only
        // once even though R has three tuples: scan r + select + (project +
        // scan s) = 4 operator invocations.
        assert_eq!(ex.operators_evaluated(), 4);
    }

    #[test]
    fn interpreter_path_memoizes_correlated_sublinks_per_binding() {
        // The acceptance bar of the shared-operator refactor: the
        // parameterized sublink memo serves the interpreter too. R.b takes
        // the two distinct values {1, 2} over three rows, so the correlated
        // sublink (select + scan = 2 operators) runs twice, not thrice.
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(col("c"), qcol("r", "b")))
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(exists_sublink(sub))
            .build();

        let memoized = Executor::new(&db);
        memoized.execute_unoptimized(&q).unwrap();
        assert_eq!(memoized.operators_evaluated(), 2 + 2 * 2);

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        unmemoized.execute_unoptimized(&q).unwrap();
        // Memo off: once per outer tuple again.
        assert_eq!(unmemoized.operators_evaluated(), 2 + 3 * 2);
    }

    #[test]
    fn initplan_caching_survives_memo_off_on_both_paths() {
        // Uncorrelated sublinks keep their per-query InitPlan cache even in
        // the memo-off baseline, mirroring the PostgreSQL engine the paper
        // measures against — on the interpreter *and* the compiled path, so
        // "memo off" means the same baseline on both.
        let db = figure3_db();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .project_columns(&["c"])
            .build();
        let q = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(any_sublink(col("a"), CompareOp::Eq, sub))
            .build();
        let interp = Executor::new(&db).with_sublink_memo(false);
        interp.execute_unoptimized(&q).unwrap();
        assert_eq!(interp.operators_evaluated(), 4);

        let compiled = Executor::new(&db).with_sublink_memo(false);
        compiled.execute(&q).unwrap();
        assert_eq!(compiled.operators_evaluated(), 4);
    }
}
