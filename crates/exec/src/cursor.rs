//! Pull-based streaming execution: a [`Rows`] cursor over a compiled plan,
//! pulling **batches** instead of single tuples.
//!
//! [`Executor::open`] walks the *top spine* of a [`CompiledPlan`] and builds
//! a cursor that yields tuples on demand instead of materialising the full
//! result. The spine operators — `LIMIT`, non-distinct projection, selection
//! and base-table scans — stream **batch by batch** (predicates and
//! projection items are evaluated vectorized over each pulled batch, see
//! `Executor::ceval_batch`); every other operator (joins, aggregation,
//! sorting, set operations, `DISTINCT`) is a pipeline breaker and is
//! materialised through the shared [`Executor::execute_compiled`] path the
//! moment the cursor is opened.
//!
//! Batching does not weaken the cursor's laziness guarantee: every pull
//! requests **at most as many rows as its consumer still needs**, so a
//! `LIMIT k` query over a streamable spine evaluates its projection and
//! selection expressions for exactly the input prefix a tuple-at-a-time
//! pull would have touched — the spine stops at the `k`-th surviving row
//! and the tail is never evaluated. (A selection that needs `k` more
//! survivors pulls its input in chunks of `k`: the last chunk fills the
//! quota only if *all* its rows survive, so the evaluated prefix ends at
//! the `k`-th survivor in every case.) The [`Rows`] iterator itself
//! refills geometrically — 1, 2, 4, … up to [`BATCH_ROWS`] rows per pull
//! — so a consumer that abandons the stream early has paid for at most
//! about twice the rows it consumed, while a full drain amortises to
//! batch-sized pulls. Sublinks inside streamed predicates go through the
//! same statement memo as materialised execution, so correlated work is
//! still shared across the tuples that *are* pulled.
//!
//! Error positions are preserved too: when a batch evaluation fails, the
//! failing operator replays the batch one row at a time — each row a batch
//! of one, on which expression-major order is row-major order — emits the
//! rows a row-at-a-time cursor would have yielded before the error, and
//! surfaces the same error after them ([`Rows`] buffers the prefix and is
//! fused once the error is returned).
//!
//! A cursor captures the executor's bound parameter vector when it is
//! opened and re-asserts it on every batch refill, so interleaved
//! executions on the same executor (with different `$n` bindings) cannot
//! corrupt an open stream.

use crate::batch::{Batch, ColumnBlock, BATCH_ROWS};
use crate::compile::{CompiledExpr, CompiledNode, CompiledPlan};
use crate::executor::Executor;
use crate::profile::{self, OpProbe, ProfNode, ProfileTree, QueryProfile};
use crate::Result;
use perm_storage::{Relation, Schema, Tuple, Value};
use std::rc::Rc;
use std::time::Instant;

/// A pull-based cursor over a query result: `Iterator<Item = Result<Tuple>>`.
///
/// After the first error the cursor is fused and yields `None` forever.
pub struct Rows<'e, 'a> {
    executor: &'e Executor<'a>,
    /// The parameter binding captured at open time, re-asserted per refill.
    params: Rc<[Value]>,
    schema: Schema,
    node: Node<'e>,
    /// The armed profile tree when opened via [`Executor::open_profiled`]
    /// (`None` otherwise — the plain [`Executor::open`] path records
    /// nothing). Re-asserted on the executor per refill, exactly like the
    /// parameter snapshot; disarmed on drop.
    profile: Option<Rc<ProfileTree>>,
    /// Output rows buffered from the last batch refill.
    buffered: std::vec::IntoIter<Tuple>,
    /// An error encountered during the last refill, yielded after the rows
    /// that precede it.
    pending_error: Option<crate::ExecError>,
    /// Rows requested by the next refill: starts at 1 and doubles up to
    /// [`BATCH_ROWS`], so a consumer that stops after a few rows has paid
    /// for at most about twice what it consumed while a full drain still
    /// amortises to batch-sized pulls.
    next_want: usize,
    done: bool,
}

/// One operator of the streaming spine. Each streaming variant carries the
/// profile node mirroring it when the cursor was opened profiled: the spine
/// records rows and refill ticks per [`fill`] call, and its wall time
/// *inclusively* (a pull-based parent's clock necessarily contains its
/// children's — unlike the materialising path's self-time; the breaker
/// below a [`Node::Materialized`] was profiled with self-times at open).
enum Node<'e> {
    /// A pipeline breaker, fully materialised at open time.
    Materialized(std::vec::IntoIter<Tuple>),
    /// Base-table scan, cloned batch by batch as pulled.
    Scan {
        tuples: &'e [Tuple],
        pos: usize,
        prof: Option<Rc<ProfNode>>,
    },
    /// Streaming selection.
    Select {
        input: Box<Node<'e>>,
        predicate: &'e CompiledExpr,
        prof: Option<Rc<ProfNode>>,
    },
    /// Streaming (non-distinct) projection.
    Project {
        input: Box<Node<'e>>,
        items: &'e [CompiledExpr],
        prof: Option<Rc<ProfNode>>,
    },
    /// Streaming truncation: stops pulling its input after `remaining`
    /// tuples.
    Limit {
        input: Box<Node<'e>>,
        remaining: usize,
        prof: Option<Rc<ProfNode>>,
    },
}

impl Node<'_> {
    /// The profile node armed for this spine operator, if any.
    fn prof(&self) -> Option<&Rc<ProfNode>> {
        match self {
            Node::Materialized(_) => None,
            Node::Scan { prof, .. }
            | Node::Select { prof, .. }
            | Node::Project { prof, .. }
            | Node::Limit { prof, .. } => prof.as_ref(),
        }
    }
}

/// `true` when the operator streams lazily in this module's spine (scan,
/// selection, non-distinct projection, limit) — the shapes for which
/// routing a top-level `LIMIT` through the cursor skips real tail work.
/// This predicate and `open_node` below are the two sides of one
/// definition: a shape streams lazily here **iff** `open_node` gives it a
/// streaming node instead of materialising it (pinned by
/// `streams_lazily_agrees_with_open_node`). Keep them in lockstep when
/// adding spine shapes.
pub(crate) fn streams_lazily(plan: &CompiledNode) -> bool {
    match plan {
        CompiledNode::Scan { .. } | CompiledNode::Select { .. } | CompiledNode::Limit { .. } => {
            true
        }
        CompiledNode::Project { distinct, .. } => !*distinct,
        _ => false,
    }
}

impl<'a> Executor<'a> {
    /// Opens a streaming cursor over a compiled top-level plan. Streamable
    /// spine operators are counted on `operators_evaluated` once at open
    /// time (one evaluation per operator invocation, exactly like
    /// the materialising path); pipeline breakers below the spine execute
    /// eagerly here. Fails with [`crate::ExecError::Param`] before anything
    /// is counted or executed when fewer parameters are bound than the plan
    /// needs; pulls re-check nothing (the cursor keeps its own binding).
    pub fn open<'e>(&'e self, plan: &'e CompiledPlan) -> Result<Rows<'e, 'a>> {
        self.begin_execution(plan)?;
        let node = self.open_node(plan.root(), None)?;
        Ok(Rows {
            executor: self,
            params: self.params_rc(),
            schema: plan.schema().clone(),
            node,
            profile: None,
            buffered: Vec::new().into_iter(),
            pending_error: None,
            next_want: 1,
            done: false,
        })
    }

    /// [`Executor::open`] with a fresh [`ProfileTree`] armed for the
    /// cursor's lifetime: the streaming counterpart of
    /// [`Executor::execute_profiled`]. The annotated snapshot is available
    /// at any point through [`Rows::profile`] — including before the stream
    /// is drained, when it reflects only the work pulled so far.
    pub fn open_profiled<'e>(&'e self, plan: &'e CompiledPlan) -> Result<Rows<'e, 'a>> {
        self.open_with_tree(plan, ProfileTree::for_plan(plan))
    }

    /// The shared profiled-open: arms `tree` on the executor (for the
    /// memoized-sublink seam) and threads its nodes through the spine.
    pub(crate) fn open_with_tree<'e>(
        &'e self,
        plan: &'e CompiledPlan,
        tree: Rc<ProfileTree>,
    ) -> Result<Rows<'e, 'a>> {
        self.begin_execution(plan)?;
        self.set_profile(Some(&tree));
        let node = match self.open_node(plan.root(), Some(&tree.root)) {
            Ok(node) => node,
            Err(e) => {
                self.set_profile(None);
                return Err(e);
            }
        };
        Ok(Rows {
            executor: self,
            params: self.params_rc(),
            schema: plan.schema().clone(),
            node,
            profile: Some(tree),
            buffered: Vec::new().into_iter(),
            pending_error: None,
            next_want: 1,
            done: false,
        })
    }

    fn open_node<'e>(
        &'e self,
        plan: &'e CompiledNode,
        prof: Option<&Rc<ProfNode>>,
    ) -> Result<Node<'e>> {
        // One evaluation per spine operator, counted at open time on the
        // global counter *and* the armed node — the same shared site
        // (`profile::begin`) the materialising operators use, so profiled
        // sums stay equal to `operators_evaluated` across both paths. The
        // timer is dropped immediately: spine wall time is recorded per
        // refill by `fill`, not at open.
        let count = |prof: Option<&Rc<ProfNode>>| {
            let probe = OpProbe::new(&self.governor, prof.map(|p| &p.stats));
            drop(profile::begin(&probe));
        };
        Ok(match plan {
            CompiledNode::Limit { input, limit, .. } => {
                count(prof);
                Node::Limit {
                    input: Box::new(self.open_node(input, prof.map(|p| &p.children[0]))?),
                    remaining: *limit,
                    prof: prof.cloned(),
                }
            }
            CompiledNode::Project {
                input,
                items,
                distinct: false,
                ..
            } => {
                count(prof);
                Node::Project {
                    input: Box::new(self.open_node(input, prof.map(|p| &p.children[0]))?),
                    items,
                    prof: prof.cloned(),
                }
            }
            CompiledNode::Select {
                input, predicate, ..
            } => {
                count(prof);
                Node::Select {
                    input: Box::new(self.open_node(input, prof.map(|p| &p.children[0]))?),
                    predicate,
                    prof: prof.cloned(),
                }
            }
            CompiledNode::Scan { table, .. } => {
                count(prof);
                Node::Scan {
                    tuples: self.database().table(table)?.tuples(),
                    pos: 0,
                    prof: prof.cloned(),
                }
            }
            breaker => Node::Materialized(
                self.execute_compiled_node(breaker, None, prof.map(|p| p.as_ref()))?
                    .into_tuples()
                    .into_iter(),
            ),
        })
    }
}

impl Rows<'_, '_> {
    /// The output schema of the cursor.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A [`CancelToken`](crate::CancelToken) wired to the executor driving
    /// this cursor. Cancelling it — from any thread — makes the next batch
    /// refill yield [`ExecError::Cancelled`](crate::ExecError::Cancelled)
    /// instead of rows, so a consumer holding only the `Rows` iterator can
    /// still be interrupted mid-stream.
    pub fn cancel_handle(&self) -> crate::CancelToken {
        self.executor.cancel_handle()
    }

    /// Drains the cursor into a materialised relation.
    pub fn into_relation(mut self) -> Result<Relation> {
        let mut out = Relation::empty(self.schema.clone());
        for tuple in &mut self {
            out.push_unchecked(tuple?);
        }
        Ok(out)
    }

    /// The annotated execution profile, when the cursor was opened through
    /// [`Executor::open_profiled`] (`None` otherwise). The snapshot covers
    /// the work pulled *so far* — a partially consumed stream reports
    /// partial actuals, which is exactly the laziness the cursor promises.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.profile.as_ref().map(|tree| tree.snapshot())
    }
}

impl Drop for Rows<'_, '_> {
    fn drop(&mut self) {
        // Disarm the executor's weak profile reference when a profiled
        // cursor goes away, so a later unrelated execution cannot
        // attribute sublink-memo traffic to this tree.
        if self.profile.is_some() {
            self.executor.set_profile(None);
        }
    }
}

impl Iterator for Rows<'_, '_> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        loop {
            if let Some(tuple) = self.buffered.next() {
                return Some(Ok(tuple));
            }
            if let Some(e) = self.pending_error.take() {
                self.done = true;
                return Some(Err(e));
            }
            if self.done {
                return None;
            }
            // A refill is a batch boundary: poll the governor here so a
            // cancelled or past-deadline stream stops within one batch even
            // when the spine below never materialises.
            if let Err(e) = self.executor.governor.checkpoint("cursor") {
                self.done = true;
                return Some(Err(e));
            }
            // Refill a batch. Another execution on the same executor may
            // have re-bound the parameter vector (or re-armed the profile)
            // between pulls; re-assert this cursor's snapshots once per
            // refill.
            self.executor.rebind_params(&self.params);
            if let Some(tree) = &self.profile {
                self.executor.set_profile(Some(tree));
            }
            let want = self.next_want;
            self.next_want = (want * 2).min(BATCH_ROWS);
            let mut batch = Vec::with_capacity(want);
            match fill(&mut self.node, self.executor, want, &mut batch) {
                Ok(more) => {
                    if !more {
                        self.done = true;
                    }
                }
                Err(e) => {
                    // `batch` holds exactly the rows a per-tuple pull would
                    // have yielded before this error.
                    self.pending_error = Some(e);
                }
            }
            self.buffered = batch.into_iter();
        }
    }
}

/// Appends up to `want` output tuples of `node` to `out`. Returns `false`
/// when the node is exhausted (no further pull can produce rows). On `Err`,
/// the tuples already appended to `out` are exactly those a tuple-at-a-time
/// evaluation would have yielded before the error.
///
/// When the node carries a profile node, each call records one refill tick,
/// the rows appended, and the (inclusive) wall time of the pull — armed
/// cursors only; the unprofiled path takes the `prof() == None` branch and
/// never reads the clock.
fn fill(node: &mut Node<'_>, ex: &Executor<'_>, want: usize, out: &mut Vec<Tuple>) -> Result<bool> {
    if want == 0 {
        return Ok(true);
    }
    let prof = node.prof().cloned();
    let start = prof.as_ref().map(|_| Instant::now());
    let before = out.len();
    let result = fill_node(node, ex, want, out);
    if let Some(p) = prof {
        let s = &p.stats;
        s.batches.set(s.batches.get() + 1);
        s.rows_out
            .set(s.rows_out.get() + (out.len() - before) as u64);
        if let Some(start) = start {
            s.wall_nanos
                .set(s.wall_nanos.get() + start.elapsed().as_nanos() as u64);
        }
    }
    result
}

/// The operator bodies behind [`fill`].
fn fill_node(
    node: &mut Node<'_>,
    ex: &Executor<'_>,
    want: usize,
    out: &mut Vec<Tuple>,
) -> Result<bool> {
    match node {
        Node::Materialized(tuples) => {
            for _ in 0..want {
                match tuples.next() {
                    Some(t) => out.push(t),
                    None => return Ok(false),
                }
            }
            Ok(true)
        }
        Node::Scan { tuples, pos, .. } => {
            let n = want.min(tuples.len() - *pos);
            out.extend(tuples[*pos..*pos + n].iter().cloned());
            *pos += n;
            Ok(*pos < tuples.len())
        }
        Node::Select {
            input,
            predicate,
            prof,
        } => {
            // Pull the input in chunks of exactly the number of survivors
            // still needed: the laziness argument in the module docs relies
            // on the last chunk filling the quota only when all its rows
            // survive.
            let mut needed = want;
            let mut in_rows: Vec<Tuple> = Vec::new();
            loop {
                in_rows.clear();
                in_rows.reserve(needed);
                let input_result = fill(input, ex, needed, &mut in_rows);
                if let Some(p) = prof {
                    let s = &p.stats;
                    s.rows_in.set(s.rows_in.get() + in_rows.len() as u64);
                }
                // Survivors of the pulled prefix are emitted before any
                // input error (per-tuple ordering: the upstream error row
                // is only reached after these rows flowed through).
                needed -= select_into(ex, predicate, &mut in_rows, out)?;
                if !input_result? {
                    return Ok(false);
                }
                if needed == 0 {
                    return Ok(true);
                }
            }
        }
        Node::Project { input, items, prof } => {
            let mut in_rows: Vec<Tuple> = Vec::with_capacity(want);
            let input_result = fill(input, ex, want, &mut in_rows);
            if let Some(p) = prof {
                let s = &p.stats;
                s.rows_in.set(s.rows_in.get() + in_rows.len() as u64);
            }
            project_into(ex, items, &in_rows, out)?;
            input_result
        }
        Node::Limit {
            input,
            remaining,
            prof,
        } => {
            if *remaining == 0 {
                return Ok(false);
            }
            let before = out.len();
            let more = fill(input, ex, want.min(*remaining), out)?;
            let pulled = out.len() - before;
            if let Some(p) = prof {
                let s = &p.stats;
                s.rows_in.set(s.rows_in.get() + pulled as u64);
            }
            *remaining -= pulled;
            Ok(more && *remaining > 0)
        }
    }
}

/// Filters `in_rows` through `predicate`, moving survivors to `out` in
/// order; returns the survivor count. When the batch fails, it is replayed
/// one row at a time, as batches of one, so the survivors preceding the
/// failing row are emitted and the error a row-by-row evaluation raises
/// first is returned.
fn select_into(
    ex: &Executor<'_>,
    predicate: &CompiledExpr,
    in_rows: &mut [Tuple],
    out: &mut Vec<Tuple>,
) -> Result<usize> {
    let mut truths = Vec::with_capacity(in_rows.len());
    let arity = in_rows.first().map(|t| t.values().len()).unwrap_or(0);
    let block = ColumnBlock::new(arity);
    let batch = Batch::dense_with_block(in_rows, &block);
    let mut failed = ex
        .predicate_truths_vectorized(predicate, &batch, None, &mut truths)
        .err();
    if failed.is_some() {
        // The core appended nothing; the replay's verdicts stop at the
        // failing row (the error set is identical, only precedence can
        // differ — see `Executor::ceval_batch`).
        failed = in_rows
            .chunks(1)
            .try_for_each(|row| {
                ex.predicate_truths_vectorized(predicate, &Batch::dense(row), None, &mut truths)
            })
            .err();
    }
    let mut survivors = 0;
    for (row, keep) in in_rows.iter_mut().zip(truths) {
        if keep {
            out.push(std::mem::take(row));
            survivors += 1;
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(survivors),
    }
}

/// Projects `in_rows` through `items`, appending one tuple per input row.
/// When the batch fails, it is replayed one row at a time, as batches of
/// one, appending the rows that precede the failing row before returning
/// its error.
fn project_into(
    ex: &Executor<'_>,
    items: &[CompiledExpr],
    in_rows: &[Tuple],
    out: &mut Vec<Tuple>,
) -> Result<()> {
    if in_rows.is_empty() {
        return Ok(());
    }
    let arity = in_rows.first().map(|t| t.values().len()).unwrap_or(0);
    let block = ColumnBlock::new(arity);
    let batch = Batch::dense_with_block(in_rows, &block);
    if ex.project_rows_vectorized(items, &batch, None, out).is_ok() {
        return Ok(());
    }
    // The core appends nothing on error, so the replay never duplicates
    // output rows.
    for row in in_rows.chunks(1) {
        ex.project_rows_vectorized(items, &Batch::dense(row), None, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecError;
    use perm_algebra::builder::{cmp, col, eq, lit, qcol, PlanBuilder};
    use perm_algebra::CompareOp;
    use perm_algebra::{Expr, ProjectItem};
    use perm_storage::{Database, Schema, Value};

    fn db_with_poisoned_tail() -> Database {
        // Row 0 passes the predicate cleanly; row 2 would divide by zero.
        // A lazy LIMIT 1 never reaches it; unlimited execution must fail.
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(
                Schema::from_names(&["x"]).with_qualifier("t"),
                vec![
                    vec![Value::Int(5)],
                    vec![Value::Int(7)],
                    vec![Value::Int(0)],
                ],
            ),
        )
        .unwrap();
        db
    }

    fn limited_query(db: &Database, limit: usize) -> perm_algebra::Plan {
        PlanBuilder::scan(db, "t")
            .unwrap()
            .select(cmp(
                CompareOp::Gt,
                Expr::Binary {
                    op: perm_algebra::BinaryOp::Div,
                    left: Box::new(lit(10)),
                    right: Box::new(col("x")),
                },
                lit(0),
            ))
            .project(vec![ProjectItem::column("x")])
            .limit(limit)
            .build()
    }

    #[test]
    fn cursor_streams_limit_without_evaluating_the_full_input() {
        let db = db_with_poisoned_tail();
        let plan = limited_query(&db, 2);
        let ex = Executor::new(&db);

        // The cursor yields the two requested tuples and stops before the
        // poisoned third row is ever evaluated.
        let compiled = ex.prepare(&plan).unwrap();
        let rows: Vec<Tuple> = ex
            .open(&compiled)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), &Value::Int(5));
        assert_eq!(rows[1].get(0), &Value::Int(7));

        // The materialising path routes a top-level LIMIT over a streamable
        // spine through the same machinery, so `execute` matches `Rows` and
        // never evaluates the tail either...
        let eager = Executor::new(&db).execute(&plan).unwrap();
        assert_eq!(eager.len(), 2);

        // ...while the reference interpreter (and any un-limited execution)
        // still evaluates every row and fails on the poisoned one.
        assert!(matches!(
            Executor::new(&db).execute_unoptimized(&plan),
            Err(ExecError::DivisionByZero)
        ));
        let unlimited = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(
                CompareOp::Gt,
                Expr::Binary {
                    op: perm_algebra::BinaryOp::Div,
                    left: Box::new(lit(10)),
                    right: Box::new(col("x")),
                },
                lit(0),
            ))
            .project(vec![ProjectItem::column("x")])
            .build();
        assert!(matches!(
            Executor::new(&db).execute(&unlimited),
            Err(ExecError::DivisionByZero)
        ));
    }

    #[test]
    fn streams_lazily_agrees_with_open_node() {
        // The LIMIT-routing predicate and the cursor's spine construction
        // must share one notion of "streams lazily": a shape streams iff
        // `open_node` gives it a non-materialised node. Check every plan
        // shape the compiler can produce.
        let db = db_with_poisoned_tail();
        let scan = PlanBuilder::scan(&db, "t").unwrap().build();
        let shapes: Vec<perm_algebra::Plan> = vec![
            scan.clone(),
            PlanBuilder::from_plan(scan.clone())
                .select(eq(col("x"), lit(5)))
                .build(),
            PlanBuilder::from_plan(scan.clone())
                .project(vec![ProjectItem::column("x")])
                .build(),
            PlanBuilder::from_plan(scan.clone())
                .project_distinct(vec![ProjectItem::column("x")])
                .build(),
            PlanBuilder::from_plan(scan.clone()).limit(2).build(),
            PlanBuilder::from_plan(scan.clone())
                .sort(vec![perm_algebra::SortKey::asc(col("x"))])
                .build(),
            PlanBuilder::from_plan(scan.clone())
                .aggregate(vec![], vec![perm_algebra::builder::count_star("n")])
                .build(),
            PlanBuilder::from_plan(scan.clone())
                .cross(PlanBuilder::scan_as(&db, "t", Some("c")).unwrap().build())
                .build(),
            PlanBuilder::from_plan(scan.clone())
                .join(
                    PlanBuilder::scan_as(&db, "t", Some("o")).unwrap().build(),
                    eq(qcol("t", "x"), qcol("o", "x")),
                )
                .build(),
            PlanBuilder::from_plan(scan.clone())
                .set_op(perm_algebra::SetOpKind::Union, true, scan.clone())
                .build(),
        ];
        let ex = Executor::new(&db);
        for plan in &shapes {
            let compiled = ex.prepare(plan).unwrap();
            let node = ex.open_node(compiled.root(), None).unwrap();
            let streams = !matches!(node, Node::Materialized(_));
            assert_eq!(
                streams_lazily(compiled.root()),
                streams,
                "routing predicate and open_node disagree on {compiled:?}"
            );
        }
    }

    #[test]
    fn breaker_nested_limit_stays_eager_and_matches_the_interpreter() {
        // Sort(Limit(Select(poisoned))): the LIMIT is nested under a
        // pipeline breaker, so it must NOT be cursor-routed — the eager
        // path reaches the poisoned row exactly like the reference
        // interpreter, keeping Ok/Err agreement across execution modes.
        let db = db_with_poisoned_tail();
        let plan = perm_algebra::builder::PlanBuilder::from_plan(limited_query(&db, 2))
            .sort(vec![perm_algebra::SortKey::asc(col("x"))])
            .build();
        assert!(matches!(
            Executor::new(&db).execute(&plan),
            Err(ExecError::DivisionByZero)
        ));
        assert!(matches!(
            Executor::new(&db).execute_unoptimized(&plan),
            Err(ExecError::DivisionByZero)
        ));
        // Inside a sublink plan the same rule applies: the correlated-free
        // LIMIT executes eagerly (frame-less, but not top-level).
        let sub = limited_query(&db, 2);
        let outer = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(perm_algebra::builder::exists_sublink(sub))
            .build();
        let compiled = Executor::new(&db).execute(&outer);
        let interpreted = Executor::new(&db).execute_unoptimized(&outer);
        assert_eq!(compiled.is_err(), interpreted.is_err());
    }

    #[test]
    fn cursor_read_ahead_grows_from_one_row() {
        // No LIMIT in the plan: the cursor's own refill sizing must still
        // start at a single row, so a consumer that stops after the first
        // row never evaluates the poisoned tail.
        let db = db_with_poisoned_tail();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(
                CompareOp::Gt,
                Expr::Binary {
                    op: perm_algebra::BinaryOp::Div,
                    left: Box::new(lit(10)),
                    right: Box::new(col("x")),
                },
                lit(0),
            ))
            .project(vec![ProjectItem::column("x")])
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let mut rows = ex.open(&compiled).unwrap();
        let first = rows.next().unwrap().unwrap();
        assert_eq!(
            first.get(0),
            &Value::Int(5),
            "a full-batch speculative refill would have hit the division by zero instead"
        );
    }

    #[test]
    fn streamed_path_honours_the_batching_toggle() {
        let db = db_with_poisoned_tail();
        let plan = limited_query(&db, 2);
        let ex = Executor::new(&db).with_batching(false);
        let compiled = ex.prepare(&plan).unwrap();
        let rows: Vec<Tuple> = ex
            .open(&compiled)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            ex.batches_vectorized(),
            0,
            "with batching disabled the streamed path evaluates row by row"
        );
        // And `execute`, which routes this LIMIT through the cursor,
        // respects the toggle the same way.
        let eager = Executor::new(&db).with_batching(false);
        assert_eq!(eager.execute(&plan).unwrap().len(), 2);
        assert_eq!(eager.batches_vectorized(), 0);
    }

    #[test]
    fn a_failing_batch_replays_row_by_row_through_a_correlated_sublink() {
        // σ_{10 / x = ANY (Π_c σ_{s.g = t.g}(s))}(t), compiled without the
        // optimizer (which would decorrelate the `= ANY`). Row 5 divides by
        // zero inside the cursor's four-row refill (rows 4–7); replayed as
        // batches of one, the cursor yields exactly the passing rows before
        // it, then the error — whether batching is on or off.
        let mut db = Database::new();
        let table = |name: &str, cols: &[&str], rows: &[(i64, i64)]| {
            Relation::from_rows(
                Schema::from_names(cols).with_qualifier(name),
                rows.iter()
                    .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                    .collect(),
            )
        };
        let t_rows = [
            (1, 0),
            (2, 0),
            (2, 1),
            (10, 1),
            (5, 0),
            (0, 0),
            (1, 1),
            (5, 1),
        ];
        db.create_table("t", table("t", &["x", "g"], &t_rows))
            .unwrap();
        db.create_table(
            "s",
            table("s", &["c", "g"], &[(10, 0), (5, 1), (2, 0), (1, 1), (7, 0)]),
        )
        .unwrap();
        let sub = PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("t", "g")))
            .project_columns(&["c"])
            .build();
        let test = Expr::Binary {
            op: perm_algebra::BinaryOp::Div,
            left: Box::new(lit(10)),
            right: Box::new(col("x")),
        };
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(perm_algebra::builder::any_sublink(test, CompareOp::Eq, sub))
            .build();
        let passing: Vec<Tuple> = [0, 2, 3, 4]
            .map(|i| Tuple::new(vec![Value::Int(t_rows[i].0), Value::Int(t_rows[i].1)]))
            .to_vec();
        for (mode, ex) in [
            ("batched", Executor::new(&db)),
            ("per-row", Executor::new(&db).with_batching(false)),
        ] {
            let compiled = ex.prepare(&plan).unwrap();
            let mut rows = ex.open(&compiled).unwrap();
            let mut got = Vec::new();
            let err = loop {
                match rows.next() {
                    Some(Ok(row)) => got.push(row),
                    Some(Err(e)) => break e,
                    None => panic!("{mode}: the stream must fail at row 5"),
                }
            };
            assert_eq!(got, passing, "{mode}");
            assert_eq!(err, ExecError::DivisionByZero, "{mode}");
            assert!(rows.next().is_none(), "{mode}");
            drop(rows);
            assert!(
                ex.batch_fallback_rows() > 0,
                "{mode}: the sublink is correlated"
            );
            assert_eq!(ex.execute(&plan).unwrap_err(), err, "{mode}");
        }
        assert_eq!(
            Executor::new(&db).execute_unoptimized(&plan).unwrap_err(),
            ExecError::DivisionByZero
        );
    }

    #[test]
    fn cursor_fuses_after_an_error() {
        let db = db_with_poisoned_tail();
        let plan = limited_query(&db, 10);
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let mut rows = ex.open(&compiled).unwrap();
        assert!(rows.next().unwrap().is_ok());
        assert!(rows.next().unwrap().is_ok());
        assert!(matches!(rows.next(), Some(Err(ExecError::DivisionByZero))));
        assert!(rows.next().is_none());
        assert!(rows.next().is_none());
    }

    #[test]
    fn cursor_matches_materialised_execution_over_a_breaker() {
        // An aggregate below the spine is a pipeline breaker: the cursor
        // materialises it, and the streamed result must match `execute`.
        let db = db_with_poisoned_tail();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .aggregate(
                vec![ProjectItem::column("x")],
                vec![perm_algebra::builder::count_star("n")],
            )
            .sort(vec![perm_algebra::SortKey::asc(col("x"))])
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        let streamed = ex.open(&compiled).unwrap().into_relation().unwrap();
        let eager = Executor::new(&db).execute(&plan).unwrap();
        assert!(streamed.bag_eq(&eager));
        assert_eq!(streamed.schema().names(), eager.schema().names());
    }

    #[test]
    fn cursor_snapshot_survives_interleaved_param_rebinding() {
        let db = db_with_poisoned_tail();
        // σ_{x = $1}(t): stream with $1 = 5, then rebind $1 = 7 mid-stream.
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(eq(col("x"), Expr::Param(0)))
            .build();
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).unwrap();
        ex.bind_params(vec![Value::Int(5)]);
        let mut rows = ex.open(&compiled).unwrap();
        ex.bind_params(vec![Value::Int(7)]);
        let first = rows.next().unwrap().unwrap();
        assert_eq!(first.get(0), &Value::Int(5), "cursor must keep its binding");
        assert!(rows.next().is_none());
    }
}
