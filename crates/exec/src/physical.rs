//! The single physical-operator layer shared by both execution paths, now
//! **batch-at-a-time**.
//!
//! Every operator loop of the engine — projection, selection, cross
//! product, hash and nested-loop joins (including left-outer NULL padding),
//! grouping/aggregation, set operations, sorting and limiting — is
//! implemented exactly once here, parameterized over *batch-evaluator
//! closures*: a closure receives a [`Batch`] (up to [`BATCH_ROWS`] tuples
//! plus a selection vector, see `crate::batch` for the invariants) and
//! appends one result per live row. The two execution paths differ only in
//! how those closures evaluate expressions:
//!
//! * the name-resolving interpreter ([`crate::Interpreter::execute`])
//!   loops over the batch row by row, builds an [`crate::eval::Env`] scope
//!   chain per row and resolves names per access — the unchanged per-tuple
//!   reference semantics;
//! * the compiled path ([`crate::Executor::execute_compiled`]) evaluates
//!   each expression *vectorized* over the whole batch
//!   (`Executor::ceval_batch`): one dispatch per expression node per batch
//!   instead of per tuple, with a correlated sublink looked up in the
//!   statement's memo once per live row.
//!
//! Both are thin drivers that execute their children, wrap their expression
//! evaluator into closures, and delegate the loop body to this module — the
//! compiled pipeline once per pull for selection, projection and limit,
//! once per invocation for the others — so
//! a semantics fix (NULL handling in hash keys, outer-join padding, empty
//! group seeding, …) lands in one place and cannot silently miss one path.
//!
//! An operator's **input** is an [`OpRows`]: rows an operator built, owned
//! by the driver that passes them on, or a stored table's (or a `VALUES`
//! list's) rows borrowed in place, which is what [`scan`] and [`values`]
//! return after checking every row's arity. Operators that only read their
//! input — join, computed projection, aggregate, set operation, cross
//! product, sublink summaries — take it by reference; selection, the
//! pass-through projection, sort and limit take it by value and hand each
//! row they emit on through one routine, [`take_row`], which moves a built
//! row and clones a borrowed one. So the first copy of a stored row is made
//! by the operator that emits it, and a row a selection drops or a join
//! only reads is never copied; a plan that is a bare scan copies its rows
//! where the driver turns its result into a `Relation`.
//!
//! Operator **output order** is part of the engine's observable semantics
//! (a stable sort above an operator keeps tie order, and `LIMIT` truncates
//! it), so the batched loops emit rows in exactly the order the classic
//! per-tuple loops did: a join emits each left row's surviving matches in
//! right-input order, then its NULL padding, before the next left row —
//! candidate batches are filtered with a truth vector and drained in order,
//! never reordered.
//!
//! A join **builds each output row once**, through an emission map (a
//! [`ColumnMap`]): the identity, or — when the compiled driver finds a
//! pass-through `Π` directly above the join, as every rule of the provenance
//! rewrite leaves one — that `Π`'s columns, so the join's full-width
//! relation never exists and the `Π` finds its rows made
//! ([`project_columns`]). Every emission site — resident probe, grace
//! emission, nested loop, NULL padding, the left rows of semi / anti joins —
//! goes through the one `JoinSink`. When the equi keys are the join's whole
//! condition there is nothing to recheck: key-encoding equality is exactly
//! `=` / `=ₙ` (the invariant of `perm_storage`'s `keys.rs`), bucket-mates
//! are the matches, and no candidate row is built to ask. The interpreter
//! passes the identity map and always rechecks; it stays the reference.
//!
//! The breakers that key their state key it on **flat bytes**: the hash join
//! and the aggregate intern `encode_key` bytes, built in reused per-row
//! buffers, into one [`KeyTable`] — the join lays its build rows out per
//! key id, the aggregate's id is its group's index — and the sort compares
//! each row's normalised key (`perm_storage::encode_sort_key` bytes,
//! ordered as `Value::sort_key` orders the values), in memory and in its
//! spilled runs alike. None of them allocates per input row for a key.
//!
//! The `operators_evaluated` accounting also lives here, in one place:
//! every physical operator counts exactly one evaluation **per logical
//! operator invocation** through its [`OpProbe`] (the governor's counter
//! registry plus, when an `EXPLAIN ANALYZE` profile is armed, the
//! operator's per-node stats — both incremented at the same site, so
//! per-node profile sums always equal the global counter) — *not* per
//! batch — which keeps
//! the counter comparable across batch sizes and is what makes
//! sublink-memo hits (which never reach this module) measurable as missing
//! operator evaluations.
//!
//! Every operator also cooperates with the executor's `Governor`
//! (`crate::resilience`) through the same probe, which carries the cancel
//! token of the execution it runs in: a cancellation **checkpoint** runs
//! once per batch boundary (never per row, so the ≤5% overhead budget
//! holds), an operator event gives fault injection its hook, and the state
//! that can actually grow without bound — hash-join build tables and
//! candidate buffers, aggregation groups, sort buffers — is charged against
//! the memory budget as it grows, with the charge credited back when the
//! operator returns.
//! The `cancel_checks` counter is deliberately separate from
//! `operators_evaluated`: the latter is a per-invocation semantics
//! diagnostic that many tests pin exactly.
//!
//! With spilling enabled (`Executor::with_spill`) those growing operators
//! go **out of core** instead of failing: when a budget charge is refused
//! the hash join switches to a *grace hash join* (build side partitioned to
//! heap files by [`fnv1a`] of the encoded key, probe keys routed by
//! ordinal, per-partition rebuild + probe, survivors re-emitted in exact
//! left-row order), the sort becomes an *external merge sort* (sorted runs
//! on disk, each record led by its row's normalised key bytes, k-way merge
//! comparing those bytes with run-index tie-break — runs are consecutive
//! input segments, so that tie-break *is* the stable-sort order), and the
//! aggregate flushes partial group states to hash partitions that are
//! merged per partition afterwards ([`Accumulator::merge`]), emitting
//! groups in global first-encounter order via per-group creation ordinals.
//! All three produce bag- and order-identical results to their resident
//! forms; only `SessionStats`' spill counters can tell them apart.

use crate::aggregate::Accumulator;
use crate::batch::{Batch, ColumnBlock, Window, BATCH_ROWS};
use crate::compile::ColumnMap;
use crate::profile::{OpProbe, OpTimer};
use crate::resilience::{
    lane_value_bytes, relation_bytes, tuple_bytes, value_bytes, Governor, TransientCharge,
};
use crate::spill::{self, fnv1a};
use crate::{ExecError, Result};
use perm_algebra::{AggFunc, JoinKind, SetOpKind};
use perm_storage::{
    encode_key_column, encode_key_column_filtered, encode_sort_entry, relation as bag, ColumnVec,
    Database, HeapFile, KeyGroups, KeyTable, Relation, Schema, StorageError, StorageManager, Tuple,
    Value,
};
use std::borrow::Cow;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// What the physical aggregate needs to know about one aggregate
/// computation; the argument *expression* stays behind the evaluator
/// closure.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggSpec {
    /// The aggregate function.
    pub(crate) func: AggFunc,
    /// Whether duplicates are dropped before aggregating.
    pub(crate) distinct: bool,
    /// `false` for `count(*)`, whose per-row contribution is the constant 1.
    pub(crate) has_arg: bool,
}

/// An operator's input and output between drivers (see the module docs for
/// who takes it how): rows under the plan's schema (which may carry an
/// alias qualifier) — built by an operator and owned by the holder, or
/// borrowed in place, a stored table's from the catalog or a `VALUES` list's
/// from the plan.
pub(crate) struct OpRows<'a> {
    schema: Cow<'a, Schema>,
    rows: Cow<'a, [Tuple]>,
}

impl<'a> OpRows<'a> {
    /// Rows that already have the arity of `schema`.
    pub(crate) fn new(schema: Cow<'a, Schema>, rows: Cow<'a, [Tuple]>) -> OpRows<'a> {
        OpRows { schema, rows }
    }

    /// Borrows `rows` under `schema` after [`checked_arity`].
    fn borrowed(schema: &'a Schema, rows: &'a [Tuple]) -> Result<OpRows<'a>> {
        let rows = Cow::Borrowed(checked_arity(schema, rows)?);
        Ok(OpRows::new(Cow::Borrowed(schema), rows))
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    pub(crate) fn tuples(&self) -> &[Tuple] {
        &self.rows
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows as a relation of their own: a borrowed input is copied here,
    /// at the root of a plan that emits it whole.
    pub(crate) fn into_relation(self) -> Relation {
        Relation::from_tuples_unchecked(self.schema.into_owned(), self.rows.into_owned())
    }

    /// The rows for [`take_row`] to hand out.
    pub(crate) fn into_rows(self) -> Cow<'a, [Tuple]> {
        self.rows
    }

    /// The schema and the rows.
    pub(crate) fn into_parts(self) -> (Cow<'a, Schema>, Cow<'a, [Tuple]>) {
        (self.schema, self.rows)
    }
}

impl From<Relation> for OpRows<'_> {
    fn from(rel: Relation) -> Self {
        let (schema, rows) = rel.into_parts();
        OpRows::new(Cow::Owned(schema), Cow::Owned(rows))
    }
}

/// `rows`, once each has the arity of `schema`: the per-row check
/// `Relation::new` makes, failing with the same typed `ArityMismatch`. Rows
/// read in place — by [`scan`] and [`values`] — pass it before any operator
/// reads a column of them, so a statement prepared against a wider table
/// fails instead of reading past a row's end.
fn checked_arity<'a>(schema: &Schema, rows: &'a [Tuple]) -> Result<&'a [Tuple]> {
    let expected = schema.arity();
    match rows.iter().find(|t| t.arity() != expected) {
        Some(t) => Err(StorageError::ArityMismatch {
            expected,
            found: t.arity(),
        }
        .into()),
        None => Ok(rows),
    }
}

/// Row `i` of an input, for the output of the operator consuming it: moved
/// out of built rows (each row is taken at most once), cloned out of
/// borrowed ones.
fn take_row(rows: &mut Cow<'_, [Tuple]>, i: usize) -> Tuple {
    match rows {
        Cow::Owned(rows) => std::mem::take(&mut rows[i]),
        Cow::Borrowed(rows) => rows[i].clone(),
    }
}

/// Base relation access: borrows the stored table's rows in place under the
/// plan's schema (which may carry an alias qualifier), once
/// [`checked_arity`] holds. Nothing is copied here: the operator that emits
/// a stored row makes its first copy (see [`OpRows`]).
pub(crate) fn scan<'a>(
    probe: OpProbe<'_>,
    db: &'a Database,
    table: &str,
    schema: &'a Schema,
) -> Result<OpRows<'a>> {
    let _timer = probe.begin("scan")?;
    probe.checkpoint("scan")?;
    probe.batch();
    OpRows::borrowed(schema, db.table(table)?.tuples())
}

/// Constant relation, borrowed from the plan like a scan's stored rows.
pub(crate) fn values<'a>(
    probe: OpProbe<'_>,
    schema: &'a Schema,
    rows: &'a [Tuple],
) -> Result<OpRows<'a>> {
    let _timer = probe.begin("values")?;
    probe.checkpoint("values")?;
    probe.batch();
    OpRows::borrowed(schema, rows)
}

/// Projection over `input`, [`BATCH_ROWS`] rows at a time with one
/// checkpoint each: `rows_of` evaluates all projection items over one batch
/// and appends one output tuple per live row to `out`. On an error `rows_of`
/// has appended the output of the batch's rows before the failing one (the
/// row-major contract of every evaluator closure here), and the error is
/// returned after them. A `DISTINCT` is the caller's, over the whole output.
pub(crate) fn project(
    probe: OpProbe<'_>,
    input: &[Tuple],
    mut rows_of: impl FnMut(&Batch<'_>, &mut Vec<Tuple>) -> Result<()>,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    let arity = input.first().map_or(0, Tuple::arity);
    out.reserve(input.len());
    for chunk in input.chunks(BATCH_ROWS) {
        probe.checkpoint("project")?;
        probe.batch();
        let before = out.len();
        let block = ColumnBlock::new(arity);
        rows_of(&Batch::dense_with_block(chunk, &block), out)?;
        debug_assert_eq!(out.len() - before, chunk.len(), "one row per live row");
    }
    Ok(())
}

/// Pass-through projection: every output column is an input column, so
/// each row is gathered by position with no expression evaluated — in
/// place out of built rows ([`ColumnMap::gather`] — moved at a column's last
/// use, cloned before it), cloned column by column out of borrowed ones
/// ([`ColumnMap::pair`]).
/// `map = None`: the join below already wrote the rows through this Π's map
/// (see [`join`]), and they pass on as they are. Either way the same
/// checkpoints and batches as [`project`] over the same input.
pub(crate) fn project_columns(
    probe: OpProbe<'_>,
    input: Cow<'_, [Tuple]>,
    map: Option<&ColumnMap>,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    let n = input.len();
    match input {
        Cow::Owned(mut rows) => {
            for start in (0..n).step_by(BATCH_ROWS) {
                probe.checkpoint("project")?;
                probe.batch();
                if let Some(map) = map {
                    for row in &mut rows[start..n.min(start + BATCH_ROWS)] {
                        *row = map.gather(std::mem::take(row));
                    }
                }
            }
            match out.is_empty() {
                true => *out = rows,
                false => out.append(&mut rows),
            }
        }
        Cow::Borrowed(rows) => {
            out.reserve(n);
            for chunk in rows.chunks(BATCH_ROWS) {
                probe.checkpoint("project")?;
                probe.batch();
                out.extend(chunk.iter().map(|row| match map {
                    Some(map) => map.pair(row, None),
                    None => row.clone(),
                }));
            }
        }
    }
    Ok(())
}

/// Selection over `input`, [`BATCH_ROWS`] rows at a time with one
/// checkpoint each, each batch's column block reading the `stored` lanes
/// under `input` when a scan handed them on: `keep` evaluates the
/// predicate over one batch (three-valued TRUE only), appending one
/// verdict per live row. Only
/// survivors reach `out`, through [`take_row`]: moved out of built rows,
/// cloned out of borrowed ones; dropped rows are never copied. On an error
/// `keep` has appended the verdicts of the batch's rows before the failing
/// one (the row-major contract of every evaluator closure here), and their
/// survivors reach `out` before the error is returned.
pub(crate) fn select(
    probe: OpProbe<'_>,
    mut input: Cow<'_, [Tuple]>,
    stored: Option<Window<'_>>,
    mut keep: impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    let arity = input.first().map_or(0, Tuple::arity);
    let mut truths: Vec<bool> = Vec::with_capacity(BATCH_ROWS.min(input.len()));
    for start in (0..input.len()).step_by(BATCH_ROWS) {
        let end = input.len().min(start + BATCH_ROWS);
        probe.checkpoint("select")?;
        probe.batch();
        truths.clear();
        let block = ColumnBlock::over(arity, stored.map(|window| window.at(start)));
        let verdicts = keep(
            &Batch::dense_with_block(&input[start..end], &block),
            &mut truths,
        );
        debug_assert!(verdicts.is_err() || truths.len() == end - start);
        for (i, keep) in (start..end).zip(&truths) {
            if *keep {
                out.push(take_row(&mut input, i));
            }
        }
        verdicts?;
    }
    Ok(())
}

/// Cross product.
pub(crate) fn cross_product(
    probe: OpProbe<'_>,
    l: &OpRows<'_>,
    r: &OpRows<'_>,
    out_schema: Schema,
) -> Result<Relation> {
    let _timer = probe.begin("cross_product")?;
    let mut out = Relation::empty(out_schema);
    let mut since_checkpoint = 0usize;
    for lt in l.tuples() {
        since_checkpoint += r.len();
        if since_checkpoint >= BATCH_ROWS {
            since_checkpoint = 0;
            probe.checkpoint("cross_product")?;
            probe.batch();
        }
        for rt in r.tuples() {
            out.push_unchecked(lt.concat(rt));
        }
    }
    Ok(out)
}

/// Resets the per-row key buffers for a chunk of `n` rows: every buffer is
/// emptied (capacity kept — the buffers are only ever read, so steady state
/// allocates nothing) and every row starts live. Shared by the hash-join
/// build/probe and the aggregate.
fn reset_key_buffers(n: usize, keys_buf: &mut Vec<Vec<u8>>, live: &mut Vec<bool>) {
    if keys_buf.len() < n {
        keys_buf.resize_with(n, Vec::new);
    }
    for key in keys_buf[..n].iter_mut() {
        key.clear();
    }
    live.clear();
    live.resize(n, true);
}

/// Where every row a join outputs goes — resident probe, grace emission,
/// nested loop, padding, semi / anti alike — through the one [`ColumnMap`]:
/// output column `k` is column `map.cols()[k]` of the candidate row
/// `left ⧺ right` (of the left row, for semi / anti joins).
struct JoinSink<'a> {
    map: &'a ColumnMap,
    kind: JoinKind,
    out: Relation,
}

impl JoinSink<'_> {
    /// A survivor of the recheck, gathered out of its candidate row.
    fn survivor(&mut self, candidate: &mut Tuple) {
        let row = self.map.gather(std::mem::take(candidate));
        self.out.push_unchecked(row);
    }

    /// Ends a left row: NULL padding for a left-outer join nothing matched,
    /// the left row itself — at most once — for a semi join something
    /// matched and an anti join nothing did.
    fn close_left(&mut self, lt: &Tuple, matched: bool) {
        let emits = match self.kind {
            JoinKind::Inner => false,
            JoinKind::Semi => matched,
            JoinKind::LeftOuter | JoinKind::Anti => !matched,
        };
        if emits {
            self.out.push_unchecked(self.map.pair(lt, None));
        }
    }
}

/// One left row's candidate range inside a pending joined-row buffer:
/// the left tuple (for padding) and the half-open candidate range.
struct JoinSegment<'l> {
    left: &'l Tuple,
    start: usize,
    end: usize,
}

/// Evaluates `condition` batch-at-a-time over a buffer of candidate rows:
/// one verdict per candidate, one checkpoint per batch.
fn recheck_candidates(
    probe: OpProbe<'_>,
    condition: &mut impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    pending: &[Tuple],
    join_arity: usize,
    truths: &mut Vec<bool>,
) -> Result<()> {
    truths.clear();
    for chunk in pending.chunks(BATCH_ROWS) {
        probe.checkpoint("join")?;
        probe.batch();
        let block = ColumnBlock::new(join_arity);
        condition(&Batch::dense_with_block(chunk, &block), truths)?;
    }
    debug_assert_eq!(truths.len(), pending.len(), "one verdict per candidate");
    Ok(())
}

/// Filters a pending buffer of joined candidate rows with `condition` and
/// emits, **in order**, each segment's surviving rows (gathered out of
/// their candidates) followed by whatever ends its left row. Drains both
/// buffers.
#[allow(clippy::too_many_arguments)]
fn flush_join_segments(
    probe: OpProbe<'_>,
    sink: &mut JoinSink<'_>,
    condition: &mut impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    pending: &mut Vec<Tuple>,
    segments: &mut Vec<JoinSegment<'_>>,
    truths: &mut Vec<bool>,
    join_arity: usize,
) -> Result<()> {
    recheck_candidates(probe, condition, pending, join_arity, truths)?;
    for segment in segments.drain(..) {
        let mut matched = false;
        for idx in segment.start..segment.end {
            if truths[idx] {
                matched = true;
                if sink.kind.left_only_output() {
                    break;
                }
                sink.survivor(&mut pending[idx]);
            }
        }
        sink.close_left(segment.left, matched);
    }
    pending.clear();
    Ok(())
}

/// The grace-hash-join spill state: one build and one probe partition file
/// per hash partition, plus the spill store that owns them.
struct JoinSpill {
    mgr: Rc<StorageManager>,
    build: Vec<Rc<HeapFile>>,
    probe: Vec<Rc<HeapFile>>,
}

impl JoinSpill {
    fn partition_of(&self, key: &[u8]) -> usize {
        (fnv1a(key) % self.build.len() as u64) as usize
    }
}

/// Picks the grace-join partition count so one partition's build side is
/// expected to fit in roughly a quarter of the budget — the rebuild is the
/// ladder's last resort, so the expectation carries headroom for hash skew
/// — clamped to a sane range.
fn join_partition_count(budget: u64, build_side: &OpRows<'_>) -> usize {
    let bytes = relation_bytes(build_side.tuples(), build_side.schema().arity());
    ((4 * bytes / budget.max(1)) as usize).clamp(2, 64)
}

/// Switches the build phase to grace mode: creates the partition files and
/// drains the build rows read so far — `row_ids[i]` is the id in `table` of
/// build row `i`'s key — into them, key by key in id order. Per-key
/// candidate order is preserved — each key's rows are written in
/// build-input order, and every row of one key lands in the same partition
/// file — and the files are the same on every run.
fn spill_join_build(
    gov: &Governor,
    build_side: &OpRows<'_>,
    table: &KeyTable,
    row_ids: &[u32],
) -> Result<JoinSpill> {
    let mgr = gov
        .spill()
        .expect("a refused try_grow guarantees a live spill store");
    let parts = join_partition_count(gov.budget().unwrap_or(1), build_side);
    let mut build = Vec::with_capacity(parts);
    let mut probe = Vec::with_capacity(parts);
    for p in 0..parts {
        build.push(mgr.create_file(&format!("join-build-{p}"))?);
        probe.push(mgr.create_file(&format!("join-probe-{p}"))?);
    }
    gov.count().spill_partitions += 2 * parts as u64;
    let js = JoinSpill { mgr, build, probe };
    let groups = KeyGroups::new(table.len(), row_ids);
    let rows = build_side.tuples();
    let mut buf = Vec::new();
    for id in 0..table.len() as u32 {
        let key = table.key(id);
        let p = js.partition_of(key);
        for &row in groups.members(id) {
            spill::encode_keyed_tuple(key, &rows[row as usize], &mut buf);
            js.build[p].append_record(&buf)?;
            gov.count().spilled_bytes += buf.len() as u64;
        }
    }
    Ok(js)
}

/// Filters a pending buffer of joined candidate rows with `condition` and
/// collects each segment's survivors as `(left ordinal, output row)` pairs
/// — the grace-probe counterpart of [`flush_join_segments`], which cannot
/// emit directly because partitions scramble the probe order. A semi / anti
/// join needs one (empty) survivor per matched ordinal. What ends a left
/// row is deferred to the ordinal-ordered emission walk.
#[allow(clippy::too_many_arguments)]
fn flush_spill_candidates(
    probe: OpProbe<'_>,
    sink: &JoinSink<'_>,
    condition: &mut impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    pending: &mut Vec<Tuple>,
    segments: &mut Vec<(u64, usize, usize)>,
    truths: &mut Vec<bool>,
    join_arity: usize,
    survivors: &mut Vec<(u64, Tuple)>,
) -> Result<()> {
    recheck_candidates(probe, condition, pending, join_arity, truths)?;
    for (ordinal, start, end) in segments.drain(..) {
        for idx in start..end {
            if truths[idx] {
                if sink.kind.left_only_output() {
                    survivors.push((ordinal, Tuple::empty()));
                    break;
                }
                let survivor = std::mem::take(&mut pending[idx]);
                survivors.push((ordinal, sink.map.gather(survivor)));
            }
        }
    }
    pending.clear();
    Ok(())
}

/// The grace-join probe and emission phases, entered once the build side
/// has been partitioned to disk. The left input stays resident; only its
/// `(ordinal, key)` pairs are routed through the probe partition files, so
/// each partition joins against exactly the build rows that can match it.
/// Survivors — already output rows — are re-emitted in exact left-row order
/// (stable sort by ordinal), each ordinal closed by [`JoinSink::close_left`].
#[allow(clippy::too_many_arguments)]
fn grace_probe(
    probe: OpProbe<'_>,
    mut sink: JoinSink<'_>,
    recheck: bool,
    js: &JoinSpill,
    l: &OpRows<'_>,
    right_arity: usize,
    key_null_safe: &[bool],
    charge: &mut Option<TransientCharge<'_>>,
    cand_charge: &mut Option<TransientCharge<'_>>,
    mut left_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    mut condition: impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
) -> Result<Relation> {
    let left_only = sink.kind.left_only_output();
    let left_arity = l.schema().arity();
    let join_arity = left_arity + right_arity;
    let nkeys = key_null_safe.len();

    // Route each live left row's (ordinal, key) to its partition; rows with
    // a NULL key under plain equality match nothing and are skipped (their
    // left-outer padding falls out of the emission walk).
    let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); nkeys];
    let mut keys_buf: Vec<Vec<u8>> = Vec::new();
    let mut live: Vec<bool> = Vec::new();
    let mut buf = Vec::new();
    let mut ordinal = 0u64;
    for chunk in l.tuples().chunks(BATCH_ROWS) {
        probe.checkpoint("join")?;
        probe.batch();
        let block = ColumnBlock::new(left_arity);
        let batch = Batch::dense_with_block(chunk, &block);
        for (i, col) in key_cols.iter_mut().enumerate() {
            col.clear_values();
            left_keys(&batch, i, col)?;
        }
        reset_key_buffers(chunk.len(), &mut keys_buf, &mut live);
        for (col, null_safe) in key_cols.iter().zip(key_null_safe) {
            encode_key_column_filtered(col, *null_safe, &mut live, &mut keys_buf[..chunk.len()]);
        }
        for j in 0..chunk.len() {
            if live[j] {
                spill::encode_probe(ordinal, &keys_buf[j], &mut buf);
                js.probe[js.partition_of(&keys_buf[j])].append_record(&buf)?;
                probe.gov.count().spilled_bytes += buf.len() as u64;
            }
            ordinal += 1;
        }
    }
    for file in js.build.iter().chain(js.probe.iter()) {
        file.seal()?;
    }

    // Per partition: rebuild that partition's key table and mates, as the
    // resident build does (this is the ladder's last resort — a partition
    // that cannot fit fails the query), then stream its probe records and
    // collect survivors.
    let mut survivors: Vec<(u64, Tuple)> = Vec::new();
    let mut pending: Vec<Tuple> = Vec::new();
    let mut segments: Vec<(u64, usize, usize)> = Vec::new();
    let mut truths: Vec<bool> = Vec::new();
    let l_tuples = l.tuples();
    let mut table = KeyTable::new();
    let mut rows: Vec<Tuple> = Vec::new();
    let mut row_ids: Vec<u32> = Vec::new();
    for p in 0..js.build.len() {
        table.clear();
        rows.clear();
        row_ids.clear();
        let mut stream = js.mgr.pool().stream(&js.build[p]);
        while let Some(record) = stream.next_record()? {
            let (key, tuple) = spill::decode_keyed_tuple(&record)?;
            if let Some(c) = charge.as_mut() {
                c.grow(key.len() as u64 + tuple_bytes(&tuple))?;
            }
            row_ids.push(table.intern(key).0);
            rows.push(tuple);
            if rows.len().is_multiple_of(BATCH_ROWS) {
                probe.checkpoint("join")?;
                probe.batch();
            }
        }
        let groups = KeyGroups::new(table.len(), &row_ids);
        let mut stream = js.mgr.pool().stream(&js.probe[p]);
        while let Some(record) = stream.next_record()? {
            let (ord, key) = spill::decode_probe(&record)?;
            let lt = &l_tuples[ord as usize];
            let mates = table.get(key).map_or(&[][..], |id| groups.members(id));
            if !recheck {
                // Bucket-mates are the matches: their output rows are built
                // here, once (a semi / anti join keeps only the fact), a
                // checkpoint per batch of them.
                let matches = if left_only {
                    mates.len().min(1)
                } else {
                    mates.len()
                };
                for &rt in &mates[..matches] {
                    let row = match left_only {
                        true => Tuple::empty(),
                        false => sink.map.pair(lt, Some(&rows[rt as usize])),
                    };
                    survivors.push((ord, row));
                    if survivors.len().is_multiple_of(BATCH_ROWS) {
                        probe.checkpoint("join")?;
                        probe.batch();
                    }
                }
                continue;
            }
            let start = pending.len();
            for &rt in mates {
                pending.push(lt.concat(&rows[rt as usize]));
            }
            let mut flush_now = false;
            if let Some(c) = cand_charge.as_mut() {
                let grown: u64 = pending[start..].iter().map(tuple_bytes).sum();
                if !c.try_grow(grown)? {
                    flush_now = true;
                }
            }
            segments.push((ord, start, pending.len()));
            if flush_now || pending.len() >= BATCH_ROWS {
                flush_spill_candidates(
                    probe,
                    &sink,
                    &mut condition,
                    &mut pending,
                    &mut segments,
                    &mut truths,
                    join_arity,
                    &mut survivors,
                )?;
                if let Some(c) = cand_charge.as_mut() {
                    c.release();
                }
            }
        }
        flush_spill_candidates(
            probe,
            &sink,
            &mut condition,
            &mut pending,
            &mut segments,
            &mut truths,
            join_arity,
            &mut survivors,
        )?;
        if let Some(c) = cand_charge.as_mut() {
            c.release();
        }
        if let Some(c) = charge.as_mut() {
            // This partition's table and rows are about to be cleared.
            c.release();
        }
    }

    // Emission in exact left-row order: a stable sort groups survivors by
    // ordinal while keeping each ordinal's build-input candidate order.
    survivors.sort_by_key(|(ord, _)| *ord);
    let mut survivors = survivors.into_iter().peekable();
    for (ord, lt) in l_tuples.iter().enumerate() {
        let mut matched = false;
        while let Some((_, row)) = survivors.next_if(|(o, _)| *o == ord as u64) {
            matched = true;
            if !left_only {
                sink.out.push_unchecked(row);
            }
        }
        sink.close_left(lt, matched);
    }
    Ok(sink.out)
}

/// Inner, left-outer, semi or anti join over already-executed inputs.
///
/// `key_null_safe` carries one flag per extracted equi-key conjunct; when
/// non-empty the join runs hashed — the right side (the **build** side, a
/// pipeline breaker consumed batch by batch at its input boundary) is keyed
/// on the column-wise key encoding ([`encode_key_column_filtered`]) of its
/// key values: each key column is encoded in one contiguous pass,
/// appending its bytes to every row's reused key buffer, and each row's
/// key is interned into one [`KeyTable`] (no allocation per row). Once the
/// side is read its rows are laid out per key id ([`KeyGroups`]), so a
/// probe finds its mates as one slice in build-input order. Rows whose key
/// is NULL under a plain (non-null-safe) equality can never match and are
/// dropped from the table / probe (the encoder marks them dead in the
/// `live` mask). When empty (no usable equality, or
/// the condition carries sublinks, e.g. the Jsub conditions of the Left
/// strategy) the join falls back to a nested loop. Either way the **probe**
/// operates batch-at-a-time: key expressions are evaluated once per batch
/// into typed [`ColumnVec`] lanes, and output keeps exactly the per-left-row
/// order of a tuple-at-a-time loop — a left row's matches in right-input
/// order, then what ends the row (NULL padding; the left row of a semi /
/// anti join).
///
/// Every output row is written through `map` by [`JoinSink`] (see the
/// module docs). With `recheck`, bucket-mates — in the nested loop, all
/// right rows — become candidate rows, filtered by a batched `condition`
/// pass, the survivors gathered out of their candidates; without it each
/// output row is built straight from its `(left, right)` pair: no candidate,
/// no `condition` call, a checkpoint per [`BATCH_ROWS`] rows emitted in
/// place of the one per candidate batch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn join(
    probe: OpProbe<'_>,
    l: &OpRows<'_>,
    r: &OpRows<'_>,
    out_schema: &Schema,
    kind: JoinKind,
    key_null_safe: &[bool],
    map: &ColumnMap,
    recheck: bool,
    mut left_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    mut right_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    mut condition: impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
) -> Result<Relation> {
    let _timer = probe.begin("join")?;
    let gov = probe.gov;
    let mut charge = gov.transient("join");
    let mut cand_charge = gov.transient("join");
    let left_arity = l.schema().arity();
    let right_arity = r.schema().arity();
    // Candidate rows are always left⧺right, even for semi/anti joins whose
    // *output* schema is the left input alone.
    let join_arity = left_arity + right_arity;
    let nkeys = key_null_safe.len();
    let mut sink = JoinSink {
        map,
        kind,
        out: Relation::empty(out_schema.clone()),
    };
    let mut pending: Vec<Tuple> = Vec::new();
    let mut segments: Vec<JoinSegment<'_>> = Vec::new();
    let mut truths: Vec<bool> = Vec::new();

    if nkeys > 0 {
        // Build side: intern each right row's encoded key values in one key
        // table, one batch of key evaluations at a time, and lay the rows
        // out per key id once the side is read. Evaluating every key
        // column eagerly (where the tuple-at-a-time loop stopped at a
        // row's first NULL non-null-safe key) is safe because equi keys
        // are always bare column references (`extract_equi_keys` extracts
        // only `Column = Column` conjuncts, resolution-checked against the
        // input schemas), so key evaluation cannot raise an error the
        // early exit would have shielded.
        let mut table = KeyTable::new();
        // The key id of each build row, `KeyGroups::NONE` for a row whose
        // NULL key matches nothing.
        let mut row_ids: Vec<u32> = Vec::with_capacity(r.len());
        let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); nkeys];
        let mut keys_buf: Vec<Vec<u8>> = Vec::new();
        let mut live: Vec<bool> = Vec::new();
        let mut js: Option<JoinSpill> = None;
        let mut rec_buf: Vec<u8> = Vec::new();
        for chunk in r.tuples().chunks(BATCH_ROWS) {
            probe.checkpoint("join")?;
            probe.batch();
            let block = ColumnBlock::new(right_arity);
            let batch = Batch::dense_with_block(chunk, &block);
            for (i, col) in key_cols.iter_mut().enumerate() {
                col.clear_values();
                right_keys(&batch, i, col)?;
            }
            // Column-wise key encoding: one pass per key column appends
            // that column's bytes to every live row's key buffer; a NULL
            // under a non-null-safe equality kills the row instead.
            reset_key_buffers(chunk.len(), &mut keys_buf, &mut live);
            for (col, null_safe) in key_cols.iter().zip(key_null_safe) {
                encode_key_column_filtered(
                    col,
                    *null_safe,
                    &mut live,
                    &mut keys_buf[..chunk.len()],
                );
            }
            if let Some(js) = &js {
                // Grace mode: the build table already moved to disk; route
                // this chunk's live rows straight to their partition files.
                for (j, rt) in chunk.iter().enumerate() {
                    if !live[j] {
                        continue;
                    }
                    spill::encode_keyed_tuple(&keys_buf[j], rt, &mut rec_buf);
                    js.build[js.partition_of(&keys_buf[j])].append_record(&rec_buf)?;
                    gov.count().spilled_bytes += rec_buf.len() as u64;
                }
                continue;
            }
            let mut chunk_bytes = 0u64;
            for (&alive, key) in live.iter().zip(&keys_buf[..chunk.len()]) {
                if !alive {
                    row_ids.push(KeyGroups::NONE);
                    continue;
                }
                if charge.is_some() {
                    // Build-table growth: the encoded key plus the
                    // bucket-mate reference.
                    chunk_bytes += key.len() as u64 + std::mem::size_of::<&Tuple>() as u64;
                }
                row_ids.push(table.intern(key).0);
            }
            if let Some(c) = charge.as_mut() {
                if !c.try_grow(chunk_bytes)? {
                    // The build table no longer fits: go grace — partition
                    // every row read so far to disk and free its budget
                    // immediately.
                    js = Some(spill_join_build(gov, r, &table, &row_ids)?);
                    table = KeyTable::new();
                    row_ids = Vec::new();
                    c.release();
                }
            }
        }
        if let Some(js) = js {
            return grace_probe(
                probe,
                sink,
                recheck,
                &js,
                l,
                right_arity,
                key_null_safe,
                &mut charge,
                &mut cand_charge,
                left_keys,
                condition,
            );
        }

        // The build rows per key id, in build-input order.
        let groups = KeyGroups::new(table.len(), &row_ids);
        let r_tuples = r.tuples();

        // Probe side, batch-at-a-time: evaluate the key columns once per
        // probe batch and look each row's key id up. Under `recheck` the
        // bucket-mates are gathered into the pending buffer and flushed
        // (condition + ordered emission) at left-row boundaries once a
        // batch worth of candidates has accumulated; otherwise they are the
        // matches and go out as they are found.
        let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); nkeys];
        let mut since_checkpoint = 0usize;
        for chunk in l.tuples().chunks(BATCH_ROWS) {
            probe.checkpoint("join")?;
            probe.batch();
            let block = ColumnBlock::new(left_arity);
            let batch = Batch::dense_with_block(chunk, &block);
            for (i, col) in key_cols.iter_mut().enumerate() {
                col.clear_values();
                left_keys(&batch, i, col)?;
            }
            reset_key_buffers(chunk.len(), &mut keys_buf, &mut live);
            for (col, null_safe) in key_cols.iter().zip(key_null_safe) {
                encode_key_column_filtered(
                    col,
                    *null_safe,
                    &mut live,
                    &mut keys_buf[..chunk.len()],
                );
            }
            for (j, lt) in chunk.iter().enumerate() {
                let mates = match live[j] {
                    true => table
                        .get(&keys_buf[j])
                        .map_or(&[][..], |id| groups.members(id)),
                    false => &[],
                };
                if !recheck {
                    let before = sink.out.len();
                    if !kind.left_only_output() {
                        for &rt in mates {
                            let rt = &r_tuples[rt as usize];
                            sink.out.push_unchecked(map.pair(lt, Some(rt)));
                            since_checkpoint += 1;
                            if since_checkpoint == BATCH_ROWS {
                                since_checkpoint = 0;
                                probe.checkpoint("join")?;
                                probe.batch();
                            }
                        }
                    }
                    sink.close_left(lt, !mates.is_empty());
                    if let Some(c) = cand_charge.as_mut() {
                        // Output growth. A refusal has no buffer to flush:
                        // the rows are the result.
                        let grown = sink.out.tuples()[before..].iter().map(tuple_bytes).sum();
                        if !c.try_grow(grown)? {
                            c.release();
                        }
                    }
                    continue;
                }
                let start = pending.len();
                for &rt in mates {
                    pending.push(lt.concat(&r_tuples[rt as usize]));
                }
                let mut flush_now = false;
                if let Some(c) = cand_charge.as_mut() {
                    // Candidate-buffer growth, which also proxies the
                    // operator's output growth (survivors move to `out`).
                    let grown: u64 = pending[start..].iter().map(tuple_bytes).sum();
                    if !c.try_grow(grown)? {
                        flush_now = true;
                    }
                }
                segments.push(JoinSegment {
                    left: lt,
                    start,
                    end: pending.len(),
                });
                if flush_now || pending.len() >= BATCH_ROWS {
                    flush_join_segments(
                        probe,
                        &mut sink,
                        &mut condition,
                        &mut pending,
                        &mut segments,
                        &mut truths,
                        join_arity,
                    )?;
                    if flush_now {
                        // Only a refused charge frees the candidate budget:
                        // the ordinary batch flush keeps the no-spill
                        // accounting identical to the pre-spill executor.
                        if let Some(c) = cand_charge.as_mut() {
                            c.release();
                        }
                    }
                }
            }
        }
        flush_join_segments(
            probe,
            &mut sink,
            &mut condition,
            &mut pending,
            &mut segments,
            &mut truths,
            join_arity,
        )?;
        return Ok(sink.out);
    }

    // Nested-loop join: each left row's candidates are the whole right
    // input, processed one right batch at a time (bounded memory, batched
    // condition dispatch), with the row closed at its boundary.
    for lt in l.tuples() {
        let mut matched = false;
        for r_chunk in r.tuples().chunks(BATCH_ROWS) {
            pending.clear();
            for rt in r_chunk {
                pending.push(lt.concat(rt));
            }
            recheck_candidates(probe, &mut condition, &pending, join_arity, &mut truths)?;
            for (idx, keep) in truths.iter().enumerate() {
                if *keep {
                    matched = true;
                    if kind.left_only_output() {
                        break;
                    }
                    sink.survivor(&mut pending[idx]);
                }
            }
            // One match decides a semi/anti join's verdict for this left
            // row; the remaining right chunks cannot change it. (The
            // optimizer only builds semi/anti joins over total conditions,
            // so skipping them drops no evaluation errors.)
            if matched && kind.left_only_output() {
                break;
            }
        }
        sink.close_left(lt, matched);
    }
    Ok(sink.out)
}

/// How many hash partitions the out-of-core aggregation flushes partial
/// group states across. Fixed (unlike the grace join's estimate): the
/// flushed records are *partial* states whose merged size is the true group
/// count, not the input size.
const AGG_SPILL_PARTITIONS: usize = 16;

/// Flushes every resident partial group state to its hash partition file
/// (creating the partition files on first flush), group by group in index
/// order, and clears the resident state. Records carry the group's creation
/// ordinal so the merge phase can restore global first-encounter order.
fn flush_agg_groups(
    gov: &Governor,
    files: &mut Option<(Rc<StorageManager>, Vec<Rc<HeapFile>>)>,
    groups: &mut Vec<(Vec<Value>, Vec<Accumulator>)>,
    ords: &mut Vec<u64>,
    index: &mut KeyTable,
) -> Result<()> {
    if files.is_none() {
        let mgr = gov
            .spill()
            .expect("a refused try_grow guarantees a live spill store");
        let mut parts = Vec::with_capacity(AGG_SPILL_PARTITIONS);
        for p in 0..AGG_SPILL_PARTITIONS {
            parts.push(mgr.create_file(&format!("agg-part-{p}"))?);
        }
        gov.count().spill_partitions += AGG_SPILL_PARTITIONS as u64;
        *files = Some((mgr, parts));
    }
    let (_, parts) = files.as_ref().expect("just created");
    let mut buf = Vec::new();
    for (id, ((key_values, accs), ord)) in groups.iter().zip(ords.iter()).enumerate() {
        let key_bytes = index.key(id as u32);
        spill::encode_agg_group(*ord, key_bytes, key_values, accs, &mut buf);
        parts[(fnv1a(key_bytes) % AGG_SPILL_PARTITIONS as u64) as usize].append_record(&buf)?;
        gov.count().spilled_bytes += buf.len() as u64;
    }
    index.clear();
    groups.clear();
    ords.clear();
    Ok(())
}

/// Grouping and aggregation — a pipeline breaker consuming its input batch
/// by batch. `eval` evaluates, for one batch, every grouping expression
/// into `group_cols[i]` (a typed [`ColumnVec`] lane) and every aggregate
/// argument into `agg_cols[i]` (columns for argless `count(*)` specs stay
/// empty; their per-row contribution is the constant 1). Groups are keyed
/// by the column-wise key encoding ([`encode_key_column`]) — the key *is*
/// the grouping equality, with no recheck — interned in one [`KeyTable`]
/// whose id is the group's index, so a row whose group exists costs a
/// lookup from a reused key buffer and no allocation; groups are emitted
/// in first-encounter order. A global aggregation (no GROUP BY) over an empty
/// input still produces one tuple (e.g. `count(*)` = 0): the single group
/// is seeded up front.
///
/// Under budget pressure with spilling enabled, partial group states are
/// flushed to hash partition files ([`flush_agg_groups`]) and merged per
/// partition afterwards ([`Accumulator::merge`]); global creation ordinals
/// (monotone, never reset, so the minimum per key is its global first
/// encounter) restore the exact first-encounter output order.
pub(crate) fn aggregate(
    probe: OpProbe<'_>,
    child: &OpRows<'_>,
    out_schema: Schema,
    group_arity: usize,
    specs: &[AggSpec],
    mut eval: impl FnMut(&Batch<'_>, &mut [ColumnVec], &mut [Vec<Value>]) -> Result<()>,
) -> Result<Relation> {
    let _timer = probe.begin("aggregate")?;
    let gov = probe.gov;
    let mut charge = gov.transient("aggregate");
    let in_arity = child.schema().arity();
    // Group `i`'s key has id `i` in `index`.
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    let mut index = KeyTable::new();
    // Per-group creation ordinals (parallel to `groups`): `next_ord` is
    // global and monotone across flushes, so after partition merging the
    // minimum ordinal per key is its global first encounter — unique, and
    // sorting by it restores exact first-encounter output order.
    let mut ords: Vec<u64> = Vec::new();
    let mut next_ord = 0u64;
    let mut spill_files: Option<(Rc<StorageManager>, Vec<Rc<HeapFile>>)> = None;
    let make_accs = || -> Vec<Accumulator> {
        specs
            .iter()
            .map(|s| Accumulator::new(s.func, s.distinct))
            .collect()
    };

    if group_arity == 0 {
        groups.push((Vec::new(), make_accs()));
        index.intern(&[]);
        ords.push(next_ord);
        next_ord += 1;
    }

    let mut group_cols: Vec<ColumnVec> = vec![ColumnVec::default(); group_arity];
    let mut agg_cols: Vec<Vec<Value>> = vec![Vec::new(); specs.len()];
    let mut keys_buf: Vec<Vec<u8>> = Vec::new();
    let mut live: Vec<bool> = Vec::new();
    for chunk in child.tuples().chunks(BATCH_ROWS) {
        probe.checkpoint("aggregate")?;
        probe.batch();
        for col in group_cols.iter_mut() {
            col.clear_values();
        }
        for col in agg_cols.iter_mut() {
            col.clear();
        }
        let block = ColumnBlock::new(in_arity);
        eval(
            &Batch::dense_with_block(chunk, &block),
            &mut group_cols,
            &mut agg_cols,
        )?;
        // Column-wise grouping keys: one contiguous pass per grouping
        // column (NULLs group together, so every row stays live).
        reset_key_buffers(chunk.len(), &mut keys_buf, &mut live);
        for col in group_cols.iter() {
            encode_key_column(col, &mut keys_buf[..chunk.len()]);
        }
        let groups_before = groups.len();
        for (j, key) in keys_buf[..chunk.len()].iter().enumerate() {
            let (id, new) = index.intern(key);
            if new {
                // First encounter: materialise the group's representative
                // values out of the column lanes (moved, not cloned — each
                // cell is consumed at most once).
                let key_values: Vec<Value> =
                    group_cols.iter_mut().map(|col| col.take_value(j)).collect();
                groups.push((key_values, make_accs()));
                ords.push(next_ord);
                next_ord += 1;
            }
            let group_index = id as usize;
            for (i, (acc, spec)) in groups[group_index].1.iter_mut().zip(specs).enumerate() {
                if spec.has_arg {
                    acc.update(&agg_cols[i][j]);
                } else {
                    acc.update(&Value::Int(1));
                }
            }
        }
        if let Some(c) = charge.as_mut() {
            // Group-state growth: key values plus accumulator slots for
            // every group first seen in this chunk.
            let grown: u64 = groups[groups_before..]
                .iter()
                .map(|(key, accs)| {
                    key.iter().map(value_bytes).sum::<u64>()
                        + (accs.len() * std::mem::size_of::<Accumulator>()) as u64
                })
                .sum();
            if !c.try_grow(grown)? {
                // Group state no longer fits: flush every resident partial
                // state to its hash partition and start over empty. A
                // global aggregation re-seeds its single group so rows keep
                // landing somewhere (with a fresh ordinal — the min-merge
                // keeps the original).
                flush_agg_groups(gov, &mut spill_files, &mut groups, &mut ords, &mut index)?;
                c.release();
                if group_arity == 0 {
                    groups.push((Vec::new(), make_accs()));
                    index.intern(&[]);
                    ords.push(next_ord);
                    next_ord += 1;
                }
            }
        }
    }

    if spill_files.is_some() {
        // Out-of-core finish: flush the remainder, then merge each
        // partition independently — every occurrence of one key hashes to
        // the same partition, so a per-partition key table sees all of its
        // partial states ([`Accumulator::merge`] is order-insensitive).
        flush_agg_groups(gov, &mut spill_files, &mut groups, &mut ords, &mut index)?;
        if let Some(c) = charge.as_mut() {
            c.release();
        }
        let (mgr, parts) = spill_files.as_ref().expect("just flushed");
        for file in parts {
            file.seal()?;
        }
        let mut merged: Vec<(u64, Tuple)> = Vec::new();
        // One partition's groups, group `i` under id `i` of `part_index`.
        let mut part_index = KeyTable::new();
        let mut part: Vec<(u64, Vec<Value>, Vec<Accumulator>)> = Vec::new();
        for file in parts {
            part_index.clear();
            let mut stream = mgr.pool().stream(file);
            let mut since = 0usize;
            while let Some(record) = stream.next_record()? {
                let (ord, key_bytes, key_values, accs) = spill::decode_agg_group(&record)?;
                match part_index.intern(key_bytes) {
                    (id, false) => {
                        let slot = &mut part[id as usize];
                        slot.0 = slot.0.min(ord);
                        for (a, b) in slot.2.iter_mut().zip(&accs) {
                            a.merge(b);
                        }
                    }
                    (_, true) => {
                        if let Some(c) = charge.as_mut() {
                            // One partition's merged state is the ladder's
                            // last resort — a partition that cannot fit
                            // fails the query.
                            c.grow(
                                key_values.iter().map(value_bytes).sum::<u64>()
                                    + (accs.len() * std::mem::size_of::<Accumulator>()) as u64,
                            )?;
                        }
                        part.push((ord, key_values, accs));
                    }
                }
                since += 1;
                if since.is_multiple_of(BATCH_ROWS) {
                    probe.checkpoint("aggregate")?;
                    probe.batch();
                }
            }
            for (ord, key_values, accs) in part.drain(..) {
                let mut row = key_values;
                for acc in &accs {
                    row.push(acc.finish());
                }
                merged.push((ord, Tuple::new(row)));
            }
            if let Some(c) = charge.as_mut() {
                // This partition's groups just went; only the finished
                // output rows remain, which the resident path never charges
                // either.
                c.release();
            }
        }
        merged.sort_by_key(|(ord, _)| *ord);
        let mut out = Relation::empty(out_schema);
        for (_, tuple) in merged {
            out.push_unchecked(tuple);
        }
        return Ok(out);
    }

    let mut out = Relation::empty(out_schema);
    for (key_values, accs) in groups {
        let mut row = key_values;
        for acc in &accs {
            row.push(acc.finish());
        }
        out.push_unchecked(Tuple::new(row));
    }
    Ok(out)
}

/// Set operation over already-executed inputs. The arity check happens here
/// at execution time, not compile time, so a malformed set operation behind
/// a short circuit stays as unreachable as it is in the interpreter.
pub(crate) fn set_op(
    probe: OpProbe<'_>,
    op: SetOpKind,
    all: bool,
    l: &OpRows<'_>,
    r: &OpRows<'_>,
) -> Result<Relation> {
    let _timer = probe.begin("set_op")?;
    probe.checkpoint("set_op")?;
    probe.batch();
    if l.schema().arity() != r.schema().arity() {
        return Err(ExecError::Unsupported(
            "set operation over inputs of different arity".into(),
        ));
    }
    let (l_rows, r_rows) = (l.tuples(), r.tuples());
    let tuples = match (op, all) {
        (SetOpKind::Union, true) => bag::bag_union(l_rows, r_rows),
        (SetOpKind::Union, false) => bag::set_union(l_rows, r_rows),
        (SetOpKind::Intersect, true) => bag::bag_intersect(l_rows, r_rows),
        (SetOpKind::Intersect, false) => bag::set_intersect(l_rows, r_rows),
        (SetOpKind::Except, true) => bag::bag_difference(l_rows, r_rows),
        (SetOpKind::Except, false) => bag::set_difference(l_rows, r_rows),
    };
    Ok(Relation::new(l.schema().clone(), tuples)?)
}

/// The sort's resident buffer: the rows it was given (moved in when built,
/// cloned when borrowed — the sort emits every row) and each row's
/// normalised sort key (`perm_storage::encode_sort_key` bytes), back to
/// back in one arena — no allocation per row. Sorting it yields a
/// permutation; neither the rows nor the keys are reordered.
struct SortBuffer {
    rows: Vec<Tuple>,
    keys: Vec<u8>,
    /// Row `i`'s key is `keys[key_ends[i]..key_ends[i + 1]]`.
    key_ends: Vec<usize>,
}

impl SortBuffer {
    fn key(&self, row: usize) -> &[u8] {
        &self.keys[self.key_ends[row]..self.key_ends[row + 1]]
    }

    /// The buffered rows' indices in sorted order: by key bytes, ties by
    /// input position, which is the stable order. Each row carries its
    /// key's first eight bytes as one integer, which decides most
    /// comparisons: keys are prefix-free, so two keys whose zero-padded
    /// first eight bytes differ first differ there.
    fn sorted_order(&self) -> Vec<usize> {
        let mut order: Vec<(u64, usize)> = (0..self.rows.len())
            .map(|i| {
                let key = self.key(i);
                let mut head = [0u8; 8];
                let n = key.len().min(8);
                head[..n].copy_from_slice(&key[..n]);
                (u64::from_be_bytes(head), i)
            })
            .collect();
        order.sort_unstable_by(|(ha, a), (hb, b)| {
            ha.cmp(hb)
                .then_with(|| self.key(*a).cmp(self.key(*b)))
                .then(a.cmp(b))
        });
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// Sorts the buffer and writes it out as one sorted run file, key bytes
    /// first in every record, leaving it empty. Because a run is always a
    /// *consecutive* segment of the input, merging runs with a
    /// lowest-run-index tie-break later reproduces the stable in-memory
    /// sort order exactly.
    fn spill_run(&mut self, gov: &Governor, runs: &mut Vec<Rc<HeapFile>>) -> Result<()> {
        let mgr = gov
            .spill()
            .expect("a refused try_grow guarantees a live spill store");
        let file = mgr.create_file(&format!("sort-run-{}", runs.len()))?;
        let mut buf = Vec::new();
        for row in self.sorted_order() {
            spill::encode_run_row(self.key(row), &self.rows[row], &mut buf);
            file.append_record(&buf)?;
            gov.count().spilled_bytes += buf.len() as u64;
        }
        file.seal()?;
        gov.count().spill_partitions += 1;
        runs.push(file);
        self.rows.clear();
        self.keys.clear();
        self.key_ends.truncate(1);
        Ok(())
    }
}

/// The next row of one sorted run inside the k-way merge, its key bytes
/// read in place. Ordered so that [`BinaryHeap`] — a max-heap — pops the
/// smallest `(key, run index)` first: among equal keys the lowest run index
/// wins, which is the stable order.
struct RunHead<'k> {
    run: usize,
    row: HeadRow<'k>,
}

/// Where a run head's row and key are.
enum HeadRow<'k> {
    /// A record read back from a run file, its key at `key`; the tuple
    /// after it is decoded when the row is emitted.
    Spilled {
        record: Vec<u8>,
        key: std::ops::Range<usize>,
    },
    /// A row of the resident remainder, its key in the sort buffer.
    Resident { key: &'k [u8], tuple: Tuple },
}

impl RunHead<'_> {
    fn key(&self) -> &[u8] {
        match &self.row {
            HeadRow::Spilled { record, key } => &record[key.clone()],
            HeadRow::Resident { key, .. } => key,
        }
    }

    /// The row, for the output.
    fn take_tuple(&mut self) -> Result<Tuple> {
        match &mut self.row {
            HeadRow::Spilled { record, key } => spill::decode_run_tuple(record, key.end),
            HeadRow::Resident { tuple, .. } => Ok(std::mem::take(tuple)),
        }
    }
}

impl Ord for RunHead<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key().cmp(self.key()).then(other.run.cmp(&self.run))
    }
}

impl PartialOrd for RunHead<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RunHead<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for RunHead<'_> {}

/// Sorting — a pipeline breaker consuming its input batch by batch. `keys`
/// evaluates, for one batch, every sort-key expression into `key_cols[i]`
/// (a [`ColumnVec`] lane); `ascending` carries the per-key direction. Each
/// row's keys are encoded straight from the lanes into one normalised key
/// ([`encode_sort_entry`]), whose byte order is the `Value::sort_key` order
/// with the directions applied, so a key never becomes a `Value` and a
/// comparison is one `memcmp`. Ties keep the input order — the sort is
/// stable — which both drivers produce identically. Under budget pressure
/// with spilling enabled the operator becomes an *external merge sort*: the
/// buffer is flushed as sorted runs ([`SortBuffer::spill_run`]) whose
/// records carry the key bytes, and the runs are k-way merged at the end
/// through a heap of run heads comparing those bytes in place, with ties
/// broken toward the lowest run index — runs are consecutive input
/// segments, so that tie-break *is* the stable order.
pub(crate) fn sort(
    probe: OpProbe<'_>,
    child: OpRows<'_>,
    ascending: &[bool],
    mut keys: impl FnMut(&Batch<'_>, &mut [ColumnVec]) -> Result<()>,
) -> Result<Relation> {
    let _timer = probe.begin("sort")?;
    let gov = probe.gov;
    let mut charge = gov.transient("sort");
    let schema = child.schema().clone();
    let arity = schema.arity();
    let mut input = child.into_rows();
    let mut key_ends = Vec::with_capacity(input.len() + 1);
    key_ends.push(0);
    let mut buffer = SortBuffer {
        rows: Vec::with_capacity(input.len()),
        keys: Vec::new(),
        key_ends,
    };
    let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); ascending.len()];
    let mut runs: Vec<Rc<HeapFile>> = Vec::new();
    for start in (0..input.len()).step_by(BATCH_ROWS) {
        let end = input.len().min(start + BATCH_ROWS);
        probe.checkpoint("sort")?;
        probe.batch();
        for col in key_cols.iter_mut() {
            col.clear_values();
        }
        let block = ColumnBlock::new(arity);
        keys(
            &Batch::dense_with_block(&input[start..end], &block),
            &mut key_cols,
        )?;
        let mut chunk_bytes = 0u64;
        for (j, i) in (start..end).enumerate() {
            for (col, asc) in key_cols.iter().zip(ascending) {
                encode_sort_entry(col, j, *asc, &mut buffer.keys);
                if charge.is_some() {
                    chunk_bytes += lane_value_bytes(col, j);
                }
            }
            buffer.key_ends.push(buffer.keys.len());
            let row = take_row(&mut input, i);
            if charge.is_some() {
                // Sort-buffer growth: the extracted keys (as the values
                // they are) plus the row.
                chunk_bytes += tuple_bytes(&row);
            }
            buffer.rows.push(row);
        }
        if let Some(c) = charge.as_mut() {
            if !c.try_grow(chunk_bytes)? {
                buffer.spill_run(gov, &mut runs)?;
                c.release();
            }
        }
    }
    // The in-memory remainder is sorted either way; with runs on disk it
    // plays the role of the final (highest-index) run in the merge.
    let order = buffer.sorted_order();
    let SortBuffer {
        mut rows,
        keys: key_bytes,
        key_ends,
    } = buffer;
    if runs.is_empty() {
        let sorted = order
            .into_iter()
            .map(|i| std::mem::take(&mut rows[i]))
            .collect();
        return Ok(Relation::new(schema, sorted)?);
    }
    let mgr = gov
        .spill()
        .expect("runs exist only when a spill store is live");
    let mut streams: Vec<_> = runs.iter().map(|f| mgr.pool().stream(f)).collect();
    let (key_bytes, key_ends) = (&key_bytes[..], &key_ends[..]);
    let mut resident = order.into_iter();
    // The next row of run `run`: a record of its file, or — past the last
    // file — of the resident remainder.
    let mut next_of = |run: usize| -> Result<Option<RunHead<'_>>> {
        let row = match streams.get_mut(run) {
            Some(stream) => match stream.next_record()? {
                Some(record) => {
                    let key = spill::decode_run_key(&record)?;
                    Some(HeadRow::Spilled { record, key })
                }
                None => None,
            },
            None => resident.next().map(|i| HeadRow::Resident {
                key: &key_bytes[key_ends[i]..key_ends[i + 1]],
                tuple: std::mem::take(&mut rows[i]),
            }),
        };
        Ok(row.map(|row| RunHead { run, row }))
    };
    let mut heads = BinaryHeap::with_capacity(runs.len() + 1);
    for run in 0..=runs.len() {
        heads.extend(next_of(run)?);
    }
    let mut out = Relation::empty(schema);
    let mut emitted = 0usize;
    while let Some(mut head) = heads.peek_mut() {
        out.push_unchecked(head.take_tuple()?);
        emitted += 1;
        if emitted.is_multiple_of(BATCH_ROWS) {
            probe.checkpoint("sort")?;
            probe.batch();
        }
        // Replacing the top in place sifts once where pop + push sift twice.
        match next_of(head.run)? {
            Some(next) => *head = next,
            None => {
                PeekMut::pop(head);
            }
        }
    }
    Ok(out)
}

/// A limit's first `n` rows: a prefix of borrowed rows stays borrowed,
/// built rows are truncated in place. The count, event, checkpoint and
/// batch of the operator are the driver's ([`limit_begin`]).
pub(crate) fn limit(rows: Cow<'_, [Tuple]>, n: usize) -> Cow<'_, [Tuple]> {
    match rows {
        Cow::Borrowed(rows) => Cow::Borrowed(&rows[..n.min(rows.len())]),
        Cow::Owned(mut rows) => {
            rows.truncate(n);
            Cow::Owned(rows)
        }
    }
}

/// What a limit does once per invocation, before it hands on a row: one
/// evaluation counted, its operator event, one checkpoint and one batch.
pub(crate) fn limit_begin<'p>(probe: OpProbe<'p>) -> Result<OpTimer<'p>> {
    let timer = probe.begin("limit")?;
    probe.checkpoint("limit")?;
    probe.batch();
    Ok(timer)
}
