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
//! pass-through projection, sort and limit take it by value, and selection
//! and sort build each row they emit through one routine, [`take_row`],
//! which moves a built row and copies a borrowed one. So the first copy of
//! a stored row is made by the operator that emits it, and a row a
//! selection drops, a sort only keys or a join only reads is never copied;
//! a plan that is a bare scan copies its rows where the driver turns its
//! result into a `Relation`.
//!
//! Operator **output order** is part of the engine's observable semantics
//! (a stable sort above an operator keeps tie order, and `LIMIT` truncates
//! it), so the batched loops emit rows in exactly the order the classic
//! per-tuple loops did: a join emits each left row's surviving matches in
//! right-input order, then its NULL padding, before the next left row —
//! candidate batches are filtered with a truth vector and drained in order,
//! never reordered.
//!
//! An operator that makes rows **builds each one once**, through an
//! emission map (a [`ColumnMap`]): when the compiled driver finds a
//! pass-through `Π` directly above a join, a selection or a sort, as every
//! rule of the provenance rewrite leaves one, that `Π`'s columns — so the
//! operator's full-width output never exists and the `Π` finds its rows
//! made ([`project_columns`]) — and otherwise the identity (a join) or no
//! map ([`take_row`]). One copy per row, made by the operator that makes
//! the row. Every row a join emits — a match, a recheck
//! survivor, NULL padding, the left row of a semi / anti join — is emitted
//! by one per-left-row body, the `Prober`, whichever loop drives it: the
//! resident hash probe and the nested loop in left order, each grace
//! partition in partition order. Candidates — bucket-mates, or a nested
//! loop's right rows — are batched across left rows up to [`BATCH_ROWS`],
//! each left row's as a segment, and rechecked a batch at a time. When the
//! equi keys are the join's whole condition there is nothing to recheck:
//! key-encoding equality is exactly `=` / `=ₙ` (the invariant of
//! `perm_storage`'s `keys.rs`), bucket-mates are the matches, and no
//! candidate row is built to ask. The nested loop first evaluates the
//! leading conjuncts of its condition that read only the left row
//! ([`LeftConjuncts`]), once per left row over batches of left rows: a row
//! they reject builds no candidate and ends in its place, and when they are
//! the whole condition a row they accept matches every right row with no
//! recheck. The interpreter passes the identity map, no left-only
//! conjuncts, and always rechecks; it stays the reference.
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
//! ordinal, per partition a rebuild whose probe records drive the resident
//! probe's `Prober` — a partition that does not fit split again by the next
//! salt —, its rows put back in exact left-row order by ordinal),
//! the sort becomes an *external merge sort* (sorted runs
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
    Database, HeapFile, KeyGroups, KeyTable, RecordStream, Relation, Schema, StorageError,
    StorageManager, Truth, Tuple, Value,
};
use std::borrow::Cow;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::Range;
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

/// Row `i` of an input as the operator consuming it emits it: through
/// `map` — the columns of the pass-through `Π` directly above, or `None`
/// for the row as it is — in the one copy the output holds. A built row is
/// moved out (each row is taken at most once) and gathered in place
/// ([`ColumnMap::gather`]); a borrowed one is copied column by column
/// ([`ColumnMap::pair`]) or whole.
fn take_row(rows: &mut Cow<'_, [Tuple]>, i: usize, map: Option<&ColumnMap>) -> Tuple {
    match (rows, map) {
        (Cow::Owned(rows), map) => gather(map, std::mem::take(&mut rows[i])),
        (Cow::Borrowed(rows), Some(map)) => map.pair(&rows[i], None),
        (Cow::Borrowed(rows), None) => rows[i].clone(),
    }
}

/// A built row emitted through `map`, if any.
fn gather(map: Option<&ColumnMap>, row: Tuple) -> Tuple {
    match map {
        Some(map) => map.gather(row),
        None => row,
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
/// `map = None`: the join, selection or sort below already built the rows
/// through this Π's map (see [`join`], [`select`], [`sort`]), and they pass
/// on as they are. Either way the same checkpoints and batches as
/// [`project`] over the same input.
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
/// verdict per live row. Only survivors reach `out`, each built once by
/// [`take_row`] — through `map`, the columns of the pass-through `Π` the
/// compiled driver found directly above, which then has nothing left to
/// gather; dropped rows are never copied. On an error `keep` has appended
/// the verdicts of the batch's rows before the failing one (the row-major
/// contract of every evaluator closure here), and their survivors reach
/// `out` before the error is returned.
pub(crate) fn select(
    probe: OpProbe<'_>,
    mut input: Cow<'_, [Tuple]>,
    stored: Option<Window<'_>>,
    map: Option<&ColumnMap>,
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
                out.push(take_row(&mut input, i, map));
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

/// One chunk's keys, encoded column-wise into per-row buffers that every
/// chunk reuses (emptied, capacity kept — the buffers are only ever read,
/// so steady state allocates nothing): the key lanes are filled through
/// [`ChunkKeys::lanes`], and [`ChunkKeys::encode`] appends each lane's
/// bytes to every row's key. Shared by the hash join's build, probe and
/// grace routing and by the aggregate.
struct ChunkKeys {
    cols: Vec<ColumnVec>,
    bytes: Vec<Vec<u8>>,
    live: Vec<bool>,
}

impl ChunkKeys {
    fn new(nkeys: usize) -> ChunkKeys {
        ChunkKeys {
            cols: vec![ColumnVec::default(); nkeys],
            bytes: Vec::new(),
            live: Vec::new(),
        }
    }

    /// The key lanes, emptied for the next chunk's values.
    fn lanes(&mut self) -> &mut [ColumnVec] {
        for col in self.cols.iter_mut() {
            col.clear_values();
        }
        &mut self.cols
    }

    /// Encodes the `n` rows of the filled lanes. `null_safe` carries one
    /// flag per join key: a NULL under a plain equality kills its row, which
    /// then matches nothing; `None` encodes grouping keys, under which NULLs
    /// group together and every row stays live.
    fn encode(&mut self, n: usize, null_safe: Option<&[bool]>) {
        if self.bytes.len() < n {
            self.bytes.resize_with(n, Vec::new);
        }
        let keys = &mut self.bytes[..n];
        for key in keys.iter_mut() {
            key.clear();
        }
        self.live.clear();
        self.live.resize(n, true);
        match null_safe {
            Some(null_safe) => {
                for (col, null_safe) in self.cols.iter().zip(null_safe) {
                    encode_key_column_filtered(col, *null_safe, &mut self.live, keys);
                }
            }
            None => {
                for col in &self.cols {
                    encode_key_column(col, keys);
                }
            }
        }
    }

    /// Evaluates and encodes the join keys of one chunk of an input with
    /// `arity` columns: `keys_of` evaluates key `i` over the chunk's batch.
    fn encode_join(
        &mut self,
        chunk: &[Tuple],
        arity: usize,
        null_safe: &[bool],
        keys_of: &mut impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    ) -> Result<()> {
        let block = ColumnBlock::new(arity);
        let batch = Batch::dense_with_block(chunk, &block);
        for (i, col) in self.lanes().iter_mut().enumerate() {
            keys_of(&batch, i, col)?;
        }
        self.encode(chunk.len(), Some(null_safe));
        Ok(())
    }

    /// Row `j`'s key, or `None` for a row that matches nothing.
    fn key(&self, j: usize) -> Option<&[u8]> {
        self.live[j].then(|| &self.bytes[j][..])
    }
}

/// Where a join's output rows go: in the order they are emitted, or — on
/// the grace path, whose partitions scramble the left order — beside their
/// left row's ordinal, for the walk that restores it.
enum JoinSink {
    InOrder(Vec<Tuple>),
    ByOrdinal(Vec<(usize, Tuple)>),
}

impl JoinSink {
    fn push(&mut self, ord: usize, row: Tuple) {
        match self {
            JoinSink::InOrder(rows) => rows.push(row),
            JoinSink::ByOrdinal(rows) => rows.push((ord, row)),
        }
    }

    /// The rows in left-row order. Each left row's rows are pushed one
    /// after another, so a stable sort by ordinal keeps their order.
    fn into_rows(self) -> Vec<Tuple> {
        match self {
            JoinSink::InOrder(rows) => rows,
            JoinSink::ByOrdinal(mut rows) => {
                rows.sort_by_key(|(ord, _)| *ord);
                rows.into_iter().map(|(_, row)| row).collect()
            }
        }
    }
}

/// The leading conjuncts of a nested-loop join's condition that read the
/// left row alone (`CompiledNode::Join` gives the count and the argument),
/// which the loop evaluates once per left row instead of once per pair.
pub(crate) struct LeftConjuncts<'f> {
    /// Appends their truth on each row of a batch of left rows; on an error
    /// that of the rows before the failing one (the row-major contract of
    /// every evaluator closure here).
    pub(crate) truths: &'f mut dyn FnMut(&Batch<'_>, &mut Vec<Truth>) -> Result<()>,
    /// They are the whole condition: the join's `condition` is never called.
    pub(crate) whole: bool,
}

/// Some or all of one left row's candidates, awaiting the recheck.
struct Segment {
    ord: usize,
    candidates: Range<usize>,
    /// The row's left-only conjuncts found it TRUE (a row with none is): an
    /// UNKNOWN row's candidates are rechecked for their errors alone.
    live: bool,
    /// The row's last candidates: the flush ends the row.
    ends: bool,
}

/// A join's per-left-row body, shared by every way of finding a left row's
/// right rows. Each output row is built once, through `map`: output column
/// `k` is column `map.cols()[k]` of the candidate row `left ⧺ right` (of the
/// left row, for semi / anti joins). A left row's rows go out in
/// right-input order, then what ends the row ([`Prober::close`]). Candidates
/// — a hash probe's bucket-mates, a nested loop's right rows — are batched
/// across left rows, each row's as a [`Segment`], and rows that need no
/// recheck close in their place among them.
struct Prober<'a, C> {
    probe: OpProbe<'a>,
    left: &'a [Tuple],
    map: &'a ColumnMap,
    kind: JoinKind,
    recheck: bool,
    condition: C,
    /// Candidate rows are always `left ⧺ right`, even for semi / anti joins
    /// whose *output* is the left row alone.
    join_arity: usize,
    /// Output growth of a hash join — under `recheck`, candidate-buffer
    /// growth, which proxies it (survivors move to the output). Only a
    /// refusal frees it, after a flush of the candidates, so that a resident
    /// join accounts as the pre-spill executor did; a grace partition frees
    /// it at its end. A nested loop charges nothing: its candidates are
    /// capped at a batch.
    charge: Option<TransientCharge<'a>>,
    /// The prober drives a nested loop, whose checkpoints come one per
    /// (left row, right chunk) it reaches.
    nested: bool,
    sink: JoinSink,
    /// Candidates awaiting the recheck, and their rows' segments in order.
    pending: Vec<Tuple>,
    segments: Vec<Segment>,
    truths: Vec<bool>,
    /// Whether the candidates flushed so far of a row whose last segment is
    /// still to come matched.
    carried: bool,
    /// Rows emitted unrechecked since the last checkpoint.
    since_checkpoint: usize,
}

impl<'a, C: FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>> Prober<'a, C> {
    /// Joins left row `ord` with its hash bucket-mates, `mates` indexing
    /// `build`. Without `recheck` the mates are the matches: each output row
    /// is built straight from its `(left, right)` pair, a checkpoint per
    /// [`BATCH_ROWS`] rows emitted (a semi / anti join keeps only the fact).
    /// With it they become candidates, flushed ([`Prober::flush`]) at a left
    /// row's boundary once a batch of them has accumulated or their charge
    /// is refused.
    fn row(&mut self, ord: usize, mates: &[u32], build: &[Tuple]) -> Result<()> {
        let lt = &self.left[ord];
        if !self.recheck {
            let mut grown = 0;
            if !self.kind.left_only_output() {
                for &rt in mates {
                    let row = self.map.pair(lt, Some(&build[rt as usize]));
                    if self.charge.is_some() {
                        grown += tuple_bytes(&row);
                    }
                    self.sink.push(ord, row);
                    self.since_checkpoint += 1;
                    if self.since_checkpoint == BATCH_ROWS {
                        self.since_checkpoint = 0;
                        self.probe.checkpoint("join")?;
                        self.probe.batch();
                    }
                }
            }
            grown += self.close(ord, !mates.is_empty());
            if let Some(c) = self.charge.as_mut() {
                // A refusal has no buffer to flush: the rows are the result.
                if c.try_grow(grown)?.is_some() {
                    c.release();
                }
            }
            return Ok(());
        }
        let start = self.pending.len();
        self.pending
            .extend(mates.iter().map(|&rt| lt.concat(&build[rt as usize])));
        self.segments.push(Segment {
            ord,
            candidates: start..self.pending.len(),
            live: true,
            ends: true,
        });
        let mut refused = false;
        if let Some(c) = self.charge.as_mut() {
            let grown = self.pending[start..].iter().map(tuple_bytes).sum();
            refused = c.try_grow(grown)?.is_some();
        }
        if refused || self.pending.len() >= BATCH_ROWS {
            self.flush()?;
            if refused {
                self.release();
            }
        }
        Ok(())
    }

    /// Ends left row `ord` unmatched, after the rows still pending.
    fn reject(&mut self, ord: usize) {
        match self.segments.is_empty() {
            true => {
                self.close(ord, false);
            }
            false => self.segments.push(Segment {
                ord,
                candidates: self.pending.len()..self.pending.len(),
                live: false,
                ends: true,
            }),
        }
    }

    /// Rechecks the pending candidates and emits, in order, each left row's
    /// survivors — gathered out of their candidates — and then what ends the
    /// row.
    fn flush(&mut self) -> Result<()> {
        self.recheck()?;
        let left_only = self.kind.left_only_output();
        let mut segments = std::mem::take(&mut self.segments);
        for segment in segments.drain(..) {
            let mut matched = std::mem::take(&mut self.carried);
            if segment.live {
                for idx in segment.candidates {
                    if self.truths[idx] {
                        matched = true;
                        if left_only {
                            break;
                        }
                        self.survivor(segment.ord, idx);
                    }
                }
            }
            match segment.ends {
                true => {
                    self.close(segment.ord, matched);
                }
                false => self.carried = matched,
            }
        }
        self.segments = segments;
        self.pending.clear();
        Ok(())
    }

    /// Evaluates `condition` over the pending candidates a batch at a time:
    /// one verdict per candidate, one checkpoint per batch — unless their
    /// right chunks were checkpointed as they were built (the nested loop).
    /// A batch that fails on a row's error is replayed one segment at a
    /// time, so the error returned is the first left row's, as a loop over
    /// left rows raises it.
    fn recheck(&mut self) -> Result<()> {
        self.truths.clear();
        for (n, chunk) in self.pending.chunks(BATCH_ROWS).enumerate() {
            if !self.nested {
                self.probe.checkpoint("join")?;
                self.probe.batch();
            }
            let block = ColumnBlock::new(self.join_arity);
            match (self.condition)(&Batch::dense_with_block(chunk, &block), &mut self.truths) {
                Err(e @ (ExecError::Cancelled { .. } | ExecError::ResourceExhausted { .. })) => {
                    return Err(e)
                }
                Err(e) => {
                    let batch = n * BATCH_ROWS..n * BATCH_ROWS + chunk.len();
                    let mut scratch = Vec::new();
                    for segment in &self.segments {
                        let part = segment.candidates.start.max(batch.start)
                            ..segment.candidates.end.min(batch.end);
                        if !part.is_empty() {
                            (self.condition)(&Batch::dense(&self.pending[part]), &mut scratch)?;
                        }
                    }
                    return Err(e);
                }
                Ok(()) => {}
            }
        }
        debug_assert_eq!(self.truths.len(), self.pending.len());
        Ok(())
    }

    /// Flushes what is pending and frees the charge.
    fn finish(&mut self) -> Result<()> {
        self.flush()?;
        self.release();
        Ok(())
    }

    fn release(&mut self) {
        if let Some(c) = self.charge.as_mut() {
            c.release();
        }
    }

    /// Candidate `idx`, which survived the recheck, as left row `ord`'s
    /// output row.
    fn survivor(&mut self, ord: usize, idx: usize) {
        let row = self.map.gather(std::mem::take(&mut self.pending[idx]));
        self.sink.push(ord, row);
    }

    /// Ends left row `ord`: NULL padding for a left-outer join nothing
    /// matched, the left row itself for a semi join something matched and
    /// an anti join nothing did. Returns the bytes emitted, when charging.
    fn close(&mut self, ord: usize, matched: bool) -> u64 {
        let emits = match self.kind {
            JoinKind::Inner => false,
            JoinKind::Semi => matched,
            JoinKind::LeftOuter | JoinKind::Anti => !matched,
        };
        if !emits {
            return 0;
        }
        let row = self.map.pair(&self.left[ord], None);
        let bytes = match self.charge {
            Some(_) => tuple_bytes(&row),
            None => 0,
        };
        self.sink.push(ord, row);
        bytes
    }

    /// The nested-loop join: every right row is a candidate of every left
    /// row. With `prefix`, its conjuncts run first, over batches of left
    /// rows with a checkpoint each, and only when the right side has a row:
    /// a row they find FALSE ends unmatched, in its place, and so does one
    /// they find UNKNOWN when they are the whole condition. Every other row
    /// — every row, without `prefix` — meets its right rows in
    /// [`Prober::pairs`].
    fn nested_loop(
        &mut self,
        right: &[Tuple],
        mut prefix: Option<LeftConjuncts<'_>>,
    ) -> Result<()> {
        let left = self.left;
        if right.is_empty() {
            // No pair: nothing is evaluated, and every row ends unmatched.
            for ord in 0..left.len() {
                self.close(ord, false);
            }
            return Ok(());
        }
        let whole = prefix.as_ref().is_some_and(|prefix| prefix.whole);
        let mut truths: Vec<Truth> = Vec::new();
        for start in (0..left.len()).step_by(BATCH_ROWS) {
            let rows = &left[start..left.len().min(start + BATCH_ROWS)];
            let verdicts = match prefix.as_mut() {
                Some(prefix) => {
                    self.probe.checkpoint("join")?;
                    self.probe.batch();
                    let block = ColumnBlock::new(rows[0].arity());
                    (prefix.truths)(&Batch::dense_with_block(rows, &block), &mut truths)
                }
                None => {
                    truths.resize(rows.len(), Truth::True);
                    Ok(())
                }
            };
            for (ord, truth) in (start..).zip(truths.drain(..)) {
                match (truth, whole) {
                    (Truth::False, _) | (Truth::Unknown, true) => self.reject(ord),
                    (truth, whole) => self.pairs(ord, truth == Truth::True, whole, right)?,
                }
            }
            if let Err(e) = verdicts {
                // The rows before the failing one end first: an error of
                // theirs precedes it.
                self.flush()?;
                return Err(e);
            }
        }
        self.flush()
    }

    /// Left row `ord` with the right rows, one chunk at a time with a
    /// checkpoint each. When the left-only conjuncts are the whole
    /// condition (`whole`, and they found the row TRUE) every pair matches,
    /// and each output row is built straight from it. Otherwise the chunk's
    /// pairs become candidates, batched with the pending ones of the rows
    /// before up to [`BATCH_ROWS`]; a candidate of a row they found UNKNOWN
    /// (`live` false) is rechecked for its errors alone. A chunk that fills
    /// the batch is flushed at once, so a semi / anti row stops at its first
    /// matching chunk: one match decides its verdict, and the remaining
    /// chunks cannot change it. (The optimizer only builds semi / anti joins
    /// over total conditions, so skipping them drops no evaluation errors.)
    fn pairs(&mut self, ord: usize, live: bool, whole: bool, right: &[Tuple]) -> Result<()> {
        let lt = &self.left[ord];
        let left_only = self.kind.left_only_output();
        let mut chunks = right.chunks(BATCH_ROWS).peekable();
        while let Some(chunk) = chunks.next() {
            self.probe.checkpoint("join")?;
            self.probe.batch();
            if whole {
                if left_only {
                    break;
                }
                for rt in chunk {
                    let row = self.map.pair(lt, Some(rt));
                    self.sink.push(ord, row);
                }
                continue;
            }
            if self.pending.len() + chunk.len() > BATCH_ROWS {
                self.flush()?;
            }
            let start = self.pending.len();
            self.pending.extend(chunk.iter().map(|rt| lt.concat(rt)));
            let ends = chunks.peek().is_none();
            self.segments.push(Segment {
                ord,
                candidates: start..self.pending.len(),
                live,
                ends,
            });
            if self.pending.len() == BATCH_ROWS {
                self.flush()?;
                if !ends && left_only && self.carried {
                    self.carried = false;
                    self.close(ord, true);
                    return Ok(());
                }
            }
        }
        if whole {
            self.close(ord, true);
        }
        Ok(())
    }
}

/// A set of hash-partition files in the spill store: a record goes to the
/// file its key's [`fnv1a`] under `salt` picks, so every record of one key
/// lands in one partition, and what the set writes is counted as it goes.
struct Partitions {
    store: Rc<StorageManager>,
    files: Vec<Rc<HeapFile>>,
    /// 0, or 1 more than the partitions this set splits one of.
    salt: u64,
}

impl Partitions {
    /// `n` fresh files named after `label`.
    fn create(
        gov: &Governor,
        store: Rc<StorageManager>,
        label: &str,
        n: usize,
    ) -> Result<Partitions> {
        let mut files = Vec::with_capacity(n);
        for p in 0..n {
            files.push(store.create_file(&format!("{label}-{p}"))?);
        }
        gov.count().spill_partitions += n as u64;
        Ok(Partitions {
            store,
            files,
            salt: 0,
        })
    }

    fn append(&self, gov: &Governor, key: &[u8], record: &[u8]) -> Result<()> {
        let p = (fnv1a(self.salt, key) % self.files.len() as u64) as usize;
        self.files[p].append_record(record)?;
        gov.count().spilled_bytes += record.len() as u64;
        Ok(())
    }

    /// A grace join's partition `p` spread over [`SPLIT_FANOUT`] new files
    /// by the next salt, its records in their order, and whether they hold
    /// more than one key.
    fn split(&self, gov: &Governor, p: usize, label: &str) -> Result<(Partitions, bool)> {
        let mut split = Partitions::create(gov, Rc::clone(&self.store), label, SPLIT_FANOUT)?;
        split.salt = self.salt + 1;
        let mut first: Option<Vec<u8>> = None;
        let mut many = false;
        let mut stream = self.store.pool().stream(&self.files[p]);
        while let Some(record) = stream.next_record()? {
            let key = spill::record_key(record)?;
            many |= *first.get_or_insert_with(|| key.to_vec()) != key;
            split.append(gov, key, record)?;
        }
        Ok((split, many))
    }

    fn seal(&self) -> Result<()> {
        for file in &self.files {
            file.seal()?;
        }
        Ok(())
    }

    /// Each partition's records, in the order they were written.
    fn streams(&self) -> impl Iterator<Item = RecordStream<'_>> {
        self.files.iter().map(|file| self.store.pool().stream(file))
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

/// Switches the build phase to grace mode: creates the build and probe
/// partition files in `store` and drains the build rows read so far —
/// `row_ids[i]` is the id in `table` of build row `i`'s key — into the
/// build files, key by key in id order. Per-key candidate order is
/// preserved — each key's rows are written in build-input order, and every
/// row of one key lands in the same partition file — and the files are the
/// same on every run.
fn spill_join_build(
    gov: &Governor,
    store: Rc<StorageManager>,
    build_side: &OpRows<'_>,
    table: &KeyTable,
    row_ids: &[u32],
) -> Result<(Partitions, Partitions)> {
    let parts = join_partition_count(gov.budget().unwrap_or(1), build_side);
    let build = Partitions::create(gov, Rc::clone(&store), "join-build", parts)?;
    let probes = Partitions::create(gov, store, "join-probe", parts)?;
    let groups = KeyGroups::new(table.len(), row_ids);
    let rows = build_side.tuples();
    let mut buf = Vec::new();
    for id in 0..table.len() as u32 {
        let key = table.key(id);
        for &row in groups.members(id) {
            spill::encode_keyed_tuple(key, &rows[row as usize], &mut buf);
            build.append(gov, key, &buf)?;
        }
    }
    Ok((build, probes))
}

/// A grace partition whose build rows do not fit is split into this many,
/// by the next salt — two keys sharing it part with odds of 7 in 8 — at
/// most `MAX_SPLITS` times in a row.
const SPLIT_FANOUT: usize = 8;
const MAX_SPLITS: u64 = 8;

/// The grace join's partitions, once every build row and every live left
/// row's `(ordinal, key)` has been routed to its partition: per partition,
/// the build rows are read back into a key table — as the resident build
/// lays them out — and its probe records drive the same [`Prober`] the
/// resident probe does, each row keyed by its left ordinal. A partition
/// whose build rows do not fit is split ([`Partitions::split`]) and joined
/// the same way; the ladder's last resort, so one whose rows all share one
/// key fails the query.
fn grace_partitions<C: FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>>(
    prober: &mut Prober<'_, C>,
    build: &Partitions,
    probes: &Partitions,
) -> Result<()> {
    let probe = prober.probe;
    build.seal()?;
    probes.seal()?;
    let mut charge = probe.gov.transient("join");
    let mut table = KeyTable::new();
    let mut rows: Vec<Tuple> = Vec::new();
    let mut row_ids: Vec<u32> = Vec::new();
    let streams = build.streams().zip(probes.streams());
    for (p, (mut build_stream, mut probe_stream)) in streams.enumerate() {
        table.clear();
        rows.clear();
        row_ids.clear();
        let mut fits = true;
        while let Some(record) = build_stream.next_record()? {
            let (key, tuple) = spill::decode_keyed_tuple(record)?;
            if let Some(c) = charge.as_mut() {
                fits = c
                    .try_grow(key.len() as u64 + tuple_bytes(&tuple))?
                    .is_none();
                if !fits {
                    // The rows read back are dropped: the split re-reads
                    // the partition's file.
                    c.release();
                    break;
                }
            }
            row_ids.push(table.intern(key).0);
            rows.push(tuple);
            if rows.len().is_multiple_of(BATCH_ROWS) {
                probe.checkpoint("join")?;
                probe.batch();
            }
        }
        if !fits {
            let gov = probe.gov;
            let (sub_build, many) = build.split(gov, p, "join-build")?;
            if !many || build.salt >= MAX_SPLITS {
                return Err(gov.exhausted("join"));
            }
            let (sub_probes, _) = probes.split(gov, p, "join-probe")?;
            grace_partitions(prober, &sub_build, &sub_probes)?;
            continue;
        }
        let groups = KeyGroups::new(table.len(), &row_ids);
        while let Some(record) = probe_stream.next_record()? {
            let (ord, key) = spill::decode_probe(record)?;
            let mates = table.get(key).map_or(&[][..], |id| groups.members(id));
            prober.row(ord as usize, mates, &rows)?;
        }
        prober.finish()?;
        if let Some(c) = charge.as_mut() {
            // This partition's table and rows are about to be cleared.
            c.release();
        }
    }
    Ok(())
}

/// Inner, left-outer, semi or anti join over already-executed inputs, its
/// per-left-row body one [`Prober`] whose rows keep exactly the order of a
/// tuple-at-a-time loop: a left row's matches in right-input order, then
/// what ends the row (NULL padding; the left row of a semi / anti join).
///
/// `key_null_safe` carries one flag per extracted equi-key conjunct; when
/// non-empty the join runs hashed — the right side (the **build** side, a
/// pipeline breaker consumed batch by batch at its input boundary) is keyed
/// on the column-wise key encoding ([`ChunkKeys`]) of its key values, each
/// row's key interned into one [`KeyTable`] (no allocation per row). Once
/// the side is read its rows are laid out per key id ([`KeyGroups`]), so a
/// probe finds its mates as one slice in build-input order. Rows whose key
/// is NULL under a plain (non-null-safe) equality can never match and are
/// dropped from the table / probe. The left (**probe**) side's keys are
/// evaluated a batch at a time into typed [`ColumnVec`] lanes, and its rows
/// drive the prober in left order, which emits as it goes. When the build
/// table outgrows the budget with spilling on, the join goes grace: the
/// build rows and the left rows' keys are routed to partition files, and
/// [`grace_partitions`] drives the same prober partition by partition, its
/// rows put back in left order at the end. When `key_null_safe` is empty
/// (no usable equality, or the condition carries sublinks, e.g. the Jsub
/// conditions of the Left strategy) the join falls back to a nested loop.
///
/// Every output row is written through `map` (see the module docs). With
/// `recheck`, bucket-mates — in the nested loop, all right rows — become
/// candidate rows, filtered by a batched `condition` pass, the survivors
/// gathered out of their candidates; without it each output row is built
/// straight from its `(left, right)` pair: no candidate, no `condition`
/// call, a checkpoint per [`BATCH_ROWS`] rows emitted in place of the one
/// per candidate batch.
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
    prefix: Option<LeftConjuncts<'_>>,
    mut left_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    mut right_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    condition: impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
) -> Result<Relation> {
    let _timer = probe.begin("join")?;
    let gov = probe.gov;
    let mut charge = gov.transient("join");
    let (left_arity, right_arity) = (l.schema().arity(), r.schema().arity());
    let mut prober = Prober {
        probe,
        left: l.tuples(),
        map,
        kind,
        recheck,
        condition,
        join_arity: left_arity + right_arity,
        charge: match key_null_safe.is_empty() {
            true => None,
            false => gov.transient("join"),
        },
        nested: key_null_safe.is_empty(),
        sink: JoinSink::InOrder(Vec::new()),
        pending: Vec::new(),
        segments: Vec::new(),
        truths: Vec::new(),
        carried: false,
        since_checkpoint: 0,
    };
    if key_null_safe.is_empty() {
        prober.nested_loop(r.tuples(), prefix)?;
        let rows = prober.sink.into_rows();
        return Ok(Relation::from_tuples_unchecked(out_schema.clone(), rows));
    }

    // Build side. Evaluating every key column eagerly (where the
    // tuple-at-a-time loop stopped at a row's first NULL non-null-safe key)
    // is safe because equi keys are always bare column references
    // (`extract_equi_keys` extracts only `Column = Column` conjuncts,
    // resolution-checked against the input schemas), so key evaluation
    // cannot raise an error the early exit would have shielded.
    let mut keys = ChunkKeys::new(key_null_safe.len());
    let mut table = KeyTable::new();
    // The key id of each build row, `KeyGroups::NONE` for a row whose NULL
    // key matches nothing.
    let mut row_ids: Vec<u32> = Vec::with_capacity(r.len());
    // Once grace: the build and probe partitions.
    let mut grace: Option<(Partitions, Partitions)> = None;
    let mut buf: Vec<u8> = Vec::new();
    for chunk in r.tuples().chunks(BATCH_ROWS) {
        probe.checkpoint("join")?;
        probe.batch();
        keys.encode_join(chunk, right_arity, key_null_safe, &mut right_keys)?;
        if let Some((build, _)) = &grace {
            // The build table already moved to disk: this chunk's live rows
            // go straight to their partition files.
            for (j, rt) in chunk.iter().enumerate() {
                if let Some(key) = keys.key(j) {
                    spill::encode_keyed_tuple(key, rt, &mut buf);
                    build.append(gov, key, &buf)?;
                }
            }
            continue;
        }
        let mut chunk_bytes = 0u64;
        for j in 0..chunk.len() {
            let Some(key) = keys.key(j) else {
                row_ids.push(KeyGroups::NONE);
                continue;
            };
            if charge.is_some() {
                // Build-table growth: the encoded key plus the bucket-mate
                // reference.
                chunk_bytes += key.len() as u64 + std::mem::size_of::<&Tuple>() as u64;
            }
            row_ids.push(table.intern(key).0);
        }
        if let Some(c) = charge.as_mut() {
            if let Some(store) = c.try_grow(chunk_bytes)? {
                // The build table no longer fits: go grace — partition
                // every row read so far to disk and free its budget
                // immediately.
                grace = Some(spill_join_build(gov, store, r, &table, &row_ids)?);
                table = KeyTable::new();
                row_ids = Vec::new();
                c.release();
                prober.sink = JoinSink::ByOrdinal(Vec::new());
            }
        }
    }

    // Probe side, in left order: each row's mates from the resident table,
    // or — grace — its key routed to its probe partition. A row whose key
    // matches nothing ends here either way.
    let groups = KeyGroups::new(table.len(), &row_ids);
    for (n, chunk) in l.tuples().chunks(BATCH_ROWS).enumerate() {
        probe.checkpoint("join")?;
        probe.batch();
        keys.encode_join(chunk, left_arity, key_null_safe, &mut left_keys)?;
        for j in 0..chunk.len() {
            let ord = n * BATCH_ROWS + j;
            match (keys.key(j), &grace) {
                (Some(key), Some((_, probes))) => {
                    spill::encode_probe(ord as u64, key, &mut buf);
                    probes.append(gov, key, &buf)?;
                }
                (key, _) => {
                    let mates = key
                        .and_then(|key| table.get(key))
                        .map_or(&[][..], |id| groups.members(id));
                    prober.row(ord, mates, r.tuples())?;
                }
            }
        }
    }
    // Under grace, what routing ended — left rows whose key matches nothing —
    // goes out first, so the prober holds no charge when a rebuild grows.
    prober.finish()?;
    if let Some((build, probes)) = grace {
        grace_partitions(&mut prober, &build, &probes)?;
    }
    let rows = prober.sink.into_rows();
    Ok(Relation::from_tuples_unchecked(out_schema.clone(), rows))
}

/// How many hash partitions the out-of-core aggregation flushes partial
/// group states across. Fixed (unlike the grace join's estimate): the
/// flushed records are *partial* states whose merged size is the true group
/// count, not the input size.
const AGG_SPILL_PARTITIONS: usize = 16;

/// Flushes every resident partial group state to its hash partition,
/// group by group in index order, and clears the resident state. Records
/// carry the group's creation ordinal so the merge phase can restore global
/// first-encounter order.
fn flush_agg_groups(
    gov: &Governor,
    parts: &Partitions,
    groups: &mut Vec<(Vec<Value>, Vec<Accumulator>)>,
    ords: &mut Vec<u64>,
    index: &mut KeyTable,
) -> Result<()> {
    let mut buf = Vec::new();
    for (id, ((key_values, accs), ord)) in groups.iter().zip(ords.iter()).enumerate() {
        let key_bytes = index.key(id as u32);
        spill::encode_agg_group(*ord, key_bytes, key_values, accs, &mut buf);
        parts.append(gov, key_bytes, &buf)?;
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
    let mut spill_files: Option<Partitions> = None;
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

    let mut keys = ChunkKeys::new(group_arity);
    let mut agg_cols: Vec<Vec<Value>> = vec![Vec::new(); specs.len()];
    for chunk in child.tuples().chunks(BATCH_ROWS) {
        probe.checkpoint("aggregate")?;
        probe.batch();
        for col in agg_cols.iter_mut() {
            col.clear();
        }
        let block = ColumnBlock::new(in_arity);
        eval(
            &Batch::dense_with_block(chunk, &block),
            keys.lanes(),
            &mut agg_cols,
        )?;
        keys.encode(chunk.len(), None);
        let groups_before = groups.len();
        for (j, key) in keys.bytes[..chunk.len()].iter().enumerate() {
            let (id, new) = index.intern(key);
            if new {
                // First encounter: materialise the group's representative
                // values out of the column lanes (moved, not cloned — each
                // cell is consumed at most once).
                let key_values: Vec<Value> =
                    keys.cols.iter_mut().map(|col| col.take_value(j)).collect();
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
            if let Some(store) = c.try_grow(grown)? {
                // Group state no longer fits: flush every resident partial
                // state to its hash partition (the partition files are
                // made at the first flush) and start over empty. A global
                // aggregation re-seeds its single group so rows keep
                // landing somewhere (with a fresh ordinal — the min-merge
                // keeps the original).
                let parts = match spill_files.take() {
                    Some(parts) => parts,
                    None => Partitions::create(gov, store, "agg-part", AGG_SPILL_PARTITIONS)?,
                };
                flush_agg_groups(gov, &parts, &mut groups, &mut ords, &mut index)?;
                spill_files = Some(parts);
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

    if let Some(parts) = spill_files {
        // Out-of-core finish: flush the remainder, then merge each
        // partition independently — every occurrence of one key hashes to
        // the same partition, so a per-partition key table sees all of its
        // partial states ([`Accumulator::merge`] is order-insensitive).
        flush_agg_groups(gov, &parts, &mut groups, &mut ords, &mut index)?;
        if let Some(c) = charge.as_mut() {
            c.release();
        }
        parts.seal()?;
        let mut merged: Vec<(u64, Tuple)> = Vec::new();
        // One partition's groups, group `i` under id `i` of `part_index`.
        let mut part_index = KeyTable::new();
        let mut part: Vec<(u64, Vec<Value>, Vec<Accumulator>)> = Vec::new();
        for mut stream in parts.streams() {
            part_index.clear();
            let mut since = 0usize;
            while let Some(record) = stream.next_record()? {
                let (ord, key_bytes, key_values, accs) = spill::decode_agg_group(record)?;
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

/// The sort's resident buffer: the input rows from `first` on that have
/// been keyed — a consecutive segment, left where it is, since the sort
/// emits each row once, in sorted order — and each row's normalised sort
/// key (`perm_storage::encode_sort_key` bytes), back to back in one arena —
/// no allocation per row. Sorting it yields a permutation of input
/// indices; neither the rows nor the keys are reordered.
struct SortBuffer {
    /// The input index of the first buffered row.
    first: usize,
    keys: Vec<u8>,
    /// Input row `first + i`'s key is `keys[key_ends[i]..key_ends[i + 1]]`.
    key_ends: Vec<usize>,
}

impl SortBuffer {
    /// The key of input row `row`.
    fn key(&self, row: usize) -> &[u8] {
        let i = row - self.first;
        &self.keys[self.key_ends[i]..self.key_ends[i + 1]]
    }

    /// The input index one past the last buffered row.
    fn end(&self) -> usize {
        self.first + self.key_ends.len() - 1
    }

    /// The buffered rows' input indices in sorted order: by key bytes, ties
    /// by input position, which is the stable order. Each row carries its
    /// key's first eight bytes as one integer, which decides most
    /// comparisons: keys are prefix-free, so two keys whose zero-padded
    /// first eight bytes differ first differ there.
    fn sorted_order(&self) -> Vec<usize> {
        let mut order: Vec<(u64, usize)> = (self.first..self.end())
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

    /// Sorts the buffer and writes its input rows out as one sorted run
    /// file, key bytes first in every record, leaving it empty; built rows
    /// live on in the run alone. Because a run is always a *consecutive*
    /// segment of the input, merging runs with a lowest-run-index
    /// tie-break later reproduces the stable in-memory sort order exactly.
    fn spill_run(
        &mut self,
        input: &mut Cow<'_, [Tuple]>,
        gov: &Governor,
        store: &StorageManager,
        runs: &mut Vec<Rc<HeapFile>>,
    ) -> Result<()> {
        let file = store.create_file(&format!("sort-run-{}", runs.len()))?;
        let mut buf = Vec::new();
        for row in self.sorted_order() {
            spill::encode_run_row(self.key(row), &input[row], &mut buf);
            file.append_record(&buf)?;
            gov.count().spilled_bytes += buf.len() as u64;
        }
        file.seal()?;
        gov.count().spill_partitions += 1;
        runs.push(file);
        if let Cow::Owned(rows) = input {
            rows[self.first..self.end()].fill_with(Tuple::default);
        }
        self.first = self.end();
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
    /// A row of the resident remainder, by input index, its key in the
    /// sort buffer.
    Resident { key: &'k [u8], row: usize },
}

impl RunHead<'_> {
    fn key(&self) -> &[u8] {
        match &self.row {
            HeadRow::Spilled { record, key } => &record[key.clone()],
            HeadRow::Resident { key, .. } => key,
        }
    }

    /// The row, for the output: decoded from its record or taken from
    /// `input`, through `map` either way ([`take_row`]).
    fn emit(&self, input: &mut Cow<'_, [Tuple]>, map: Option<&ColumnMap>) -> Result<Tuple> {
        Ok(match &self.row {
            HeadRow::Spilled { record, key } => {
                gather(map, spill::decode_run_tuple(record, key.end)?)
            }
            HeadRow::Resident { row, .. } => take_row(input, *row, map),
        })
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
///
/// The buffer keeps input indices, not rows: each row is built once, when
/// it is emitted in sorted order ([`take_row`]), or read back from its run.
/// With `emit` — the column map and schema of the pass-through `Π` the
/// compiled driver found directly above — it is built through that map,
/// and the `Π` has nothing left to gather; a run's records hold the input
/// rows either way.
pub(crate) fn sort(
    probe: OpProbe<'_>,
    child: OpRows<'_>,
    ascending: &[bool],
    emit: Option<(&ColumnMap, &Schema)>,
    mut keys: impl FnMut(&Batch<'_>, &mut [ColumnVec]) -> Result<()>,
) -> Result<Relation> {
    let _timer = probe.begin("sort")?;
    let gov = probe.gov;
    let mut charge = gov.transient("sort");
    let arity = child.schema().arity();
    let (map, schema) = match emit {
        Some((map, schema)) => (Some(map), schema.clone()),
        None => (None, child.schema().clone()),
    };
    let mut input = child.into_rows();
    let mut key_ends = Vec::with_capacity(input.len() + 1);
    key_ends.push(0);
    let mut buffer = SortBuffer {
        first: 0,
        keys: Vec::new(),
        key_ends,
    };
    let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); ascending.len()];
    // The spill store, once a refused charge handed it over, and the runs
    // written to it.
    let mut store: Option<Rc<StorageManager>> = None;
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
            if charge.is_some() {
                // Sort-buffer growth: the extracted keys (as the values
                // they are) plus the row.
                chunk_bytes += tuple_bytes(&input[i]);
            }
        }
        if let Some(c) = charge.as_mut() {
            if let Some(spill) = c.try_grow(chunk_bytes)? {
                buffer.spill_run(&mut input, gov, &spill, &mut runs)?;
                store = Some(spill);
                c.release();
            }
        }
    }
    // The in-memory remainder is sorted either way; with runs on disk it
    // plays the role of the final (highest-index) run in the merge.
    let order = buffer.sorted_order();
    let Some(store) = store else {
        let sorted = order
            .into_iter()
            .map(|i| take_row(&mut input, i, map))
            .collect();
        return Ok(Relation::new(schema, sorted)?);
    };
    let mut streams: Vec<_> = runs.iter().map(|f| store.pool().stream(f)).collect();
    let buffer = &buffer;
    let mut resident = order.into_iter();
    // The next row of run `run`: a record of its file, or — past the last
    // file — of the resident remainder.
    let mut next_of = |run: usize| -> Result<Option<RunHead<'_>>> {
        let row = match streams.get_mut(run) {
            Some(stream) => match stream.next_record()? {
                Some(record) => {
                    // The merge holds each run's head across pulls of the
                    // others, so it owns its record.
                    let key = spill::decode_run_key(record)?;
                    Some(HeadRow::Spilled {
                        record: record.to_vec(),
                        key,
                    })
                }
                None => None,
            },
            None => resident.next().map(|row| HeadRow::Resident {
                key: buffer.key(row),
                row,
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
        out.push_unchecked(head.emit(&mut input, map)?);
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
