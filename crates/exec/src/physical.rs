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
//! evaluator into closures, and delegate the loop body to this module — so
//! a semantics fix (NULL handling in hash keys, outer-join padding, empty
//! group seeding, …) lands in one place and cannot silently miss one path.
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
//! (`crate::resilience`): a cancellation **checkpoint** runs once per batch
//! boundary (never per row, so the ≤5% overhead budget holds), an operator
//! event gives fault injection its hook, and the state that can actually
//! grow without bound — hash-join build tables and candidate buffers,
//! aggregation groups, sort buffers — is charged against the memory budget
//! as it grows, with the charge credited back when the operator returns.
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
//! on disk, k-way merge with run-index tie-break — runs are consecutive
//! input segments, so that tie-break *is* the stable-sort order), and the
//! aggregate flushes partial group states to hash partitions that are
//! merged per partition afterwards ([`Accumulator::merge`]), emitting
//! groups in global first-encounter order via per-group creation ordinals.
//! All three produce bag- and order-identical results to their resident
//! forms; only `SessionStats`' spill counters can tell them apart.

use crate::aggregate::Accumulator;
use crate::batch::{Batch, ColumnBlock, BATCH_ROWS};
use crate::compile::ColumnMap;
use crate::profile::{self, OpProbe};
use crate::resilience::{relation_bytes, tuple_bytes, value_bytes, Governor, TransientCharge};
use crate::spill::{self, fnv1a, SpillManager};
use crate::{ExecError, Result};
use perm_algebra::{AggFunc, JoinKind, SetOpKind};
use perm_storage::{
    encode_key_column, encode_key_column_filtered, ColumnVec, Database, HeapFile, Relation, Schema,
    Tuple, Value,
};
use std::collections::binary_heap::PeekMut;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
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

/// Base relation access: materialises the stored table under the plan's
/// schema (which may carry an alias qualifier).
pub(crate) fn scan(
    probe: OpProbe<'_>,
    gov: &Governor,
    db: &Database,
    table: &str,
    schema: &Schema,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("scan")?;
    gov.checkpoint("scan")?;
    probe.batch();
    let base = db.table(table)?;
    Ok(Relation::new(schema.clone(), base.tuples().to_vec())?)
}

/// Constant relation.
pub(crate) fn values(
    probe: OpProbe<'_>,
    gov: &Governor,
    schema: &Schema,
    rows: &[Tuple],
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("values")?;
    gov.checkpoint("values")?;
    probe.batch();
    Ok(Relation::new(schema.clone(), rows.to_vec())?)
}

/// Projection: `rows_of` evaluates all projection items over one batch,
/// appending one output tuple per live row.
pub(crate) fn project(
    probe: OpProbe<'_>,
    gov: &Governor,
    child: &Relation,
    out_schema: Schema,
    distinct: bool,
    mut rows_of: impl FnMut(&Batch<'_>, &mut Vec<Tuple>) -> Result<()>,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("project")?;
    let arity = child.schema().arity();
    let mut out = Relation::empty(out_schema);
    let mut buf: Vec<Tuple> = Vec::with_capacity(BATCH_ROWS.min(child.len()));
    for chunk in child.tuples().chunks(BATCH_ROWS) {
        gov.checkpoint("project")?;
        probe.batch();
        buf.clear();
        let block = ColumnBlock::new(arity);
        rows_of(&Batch::dense_with_block(chunk, &block), &mut buf)?;
        debug_assert_eq!(buf.len(), chunk.len(), "projection must be 1:1 per batch");
        for tuple in buf.drain(..) {
            out.push_unchecked(tuple);
        }
    }
    Ok(if distinct { out.distinct() } else { out })
}

/// Pass-through projection over a child the driver owns: every output
/// column is an input column, so each row is gathered by position, in place
/// ([`ColumnMap::gather`] — moved at a column's last use, cloned before it),
/// with no expression evaluated. `map = None`: the join below already wrote
/// the rows through this Π's map (see [`join`]), and the profile says so.
/// Either way the same checkpoints and batches as [`project`] over the same
/// input.
pub(crate) fn project_columns(
    probe: OpProbe<'_>,
    gov: &Governor,
    child: Relation,
    out_schema: Schema,
    map: Option<&ColumnMap>,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("project")?;
    if map.is_none() {
        probe.emitted_by_join();
    }
    let mut rows = child.into_tuples();
    for chunk in rows.chunks_mut(BATCH_ROWS) {
        gov.checkpoint("project")?;
        probe.batch();
        if let Some(map) = map {
            for row in chunk {
                *row = map.gather(std::mem::take(row));
            }
        }
    }
    Ok(Relation::new(out_schema, rows)?)
}

/// Selection: `keep` evaluates the predicate over one batch (three-valued
/// TRUE only), appending one verdict per live row. The child is consumed:
/// survivors are marked in a truth vector and moved into the output, dropped
/// rows are never copied.
pub(crate) fn select(
    probe: OpProbe<'_>,
    gov: &Governor,
    child: Relation,
    mut keep: impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("select")?;
    let schema = child.schema().clone();
    let arity = schema.arity();
    let mut input = child.into_tuples();
    let mut out = Relation::empty(schema);
    let mut truths: Vec<bool> = Vec::with_capacity(BATCH_ROWS.min(input.len()));
    for chunk in input.chunks_mut(BATCH_ROWS) {
        gov.checkpoint("select")?;
        probe.batch();
        truths.clear();
        let block = ColumnBlock::new(arity);
        keep(&Batch::dense_with_block(chunk, &block), &mut truths)?;
        debug_assert_eq!(truths.len(), chunk.len(), "one verdict per live row");
        for (tuple, keep) in chunk.iter_mut().zip(&truths) {
            if *keep {
                out.push_unchecked(std::mem::take(tuple));
            }
        }
    }
    Ok(out)
}

/// Cross product.
pub(crate) fn cross_product(
    probe: OpProbe<'_>,
    gov: &Governor,
    l: &Relation,
    r: &Relation,
    out_schema: Schema,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("cross_product")?;
    let mut out = Relation::empty(out_schema);
    let mut since_checkpoint = 0usize;
    for lt in l.tuples() {
        since_checkpoint += r.len();
        if since_checkpoint >= BATCH_ROWS {
            since_checkpoint = 0;
            gov.checkpoint("cross_product")?;
            probe.batch();
        }
        for rt in r.tuples() {
            out.push_unchecked(lt.concat(rt));
        }
    }
    Ok(out)
}

/// Resets the per-row key buffers for a chunk of `n` rows: every buffer is
/// emptied (capacity kept, so steady state allocates nothing) and every row
/// starts live. Shared by the hash-join build/probe and the aggregate.
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
    gov: &Governor,
    condition: &mut impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    pending: &[Tuple],
    join_arity: usize,
    truths: &mut Vec<bool>,
) -> Result<()> {
    truths.clear();
    for chunk in pending.chunks(BATCH_ROWS) {
        gov.checkpoint("join")?;
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
    gov: &Governor,
    sink: &mut JoinSink<'_>,
    condition: &mut impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    pending: &mut Vec<Tuple>,
    segments: &mut Vec<JoinSegment<'_>>,
    truths: &mut Vec<bool>,
    join_arity: usize,
) -> Result<()> {
    recheck_candidates(probe, gov, condition, pending, join_arity, truths)?;
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
/// per hash partition, plus the manager that owns them.
struct JoinSpill {
    mgr: Rc<SpillManager>,
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
fn join_partition_count(budget: u64, build_side: &Relation) -> usize {
    let bytes = relation_bytes(build_side);
    ((4 * bytes / budget.max(1)) as usize).clamp(2, 64)
}

/// Switches the build phase to grace mode: creates the partition files and
/// drains the in-memory buckets into them. Per-key candidate order is
/// preserved — each bucket's rows are written in build-input order, and
/// every row of one key lands in the same partition file.
fn spill_join_build(
    gov: &Governor,
    build_side: &Relation,
    buckets: &mut HashMap<Vec<u8>, Vec<&Tuple>>,
) -> Result<JoinSpill> {
    let mgr = gov
        .spill()
        .expect("a refused try_grow guarantees a live spill manager");
    let parts = join_partition_count(gov.budget().unwrap_or(1), build_side);
    let mut build = Vec::with_capacity(parts);
    let mut probe = Vec::with_capacity(parts);
    for p in 0..parts {
        build.push(mgr.create_file(&format!("join-build-{p}"))?);
        probe.push(mgr.create_file(&format!("join-probe-{p}"))?);
    }
    gov.count().spill_partitions += 2 * parts as u64;
    let js = JoinSpill { mgr, build, probe };
    let mut buf = Vec::new();
    for (key, mates) in buckets.drain() {
        let p = js.partition_of(&key);
        for rt in mates {
            spill::encode_keyed_tuple(&key, rt, &mut buf);
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
    gov: &Governor,
    sink: &JoinSink<'_>,
    condition: &mut impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
    pending: &mut Vec<Tuple>,
    segments: &mut Vec<(u64, usize, usize)>,
    truths: &mut Vec<bool>,
    join_arity: usize,
    survivors: &mut Vec<(u64, Tuple)>,
) -> Result<()> {
    recheck_candidates(probe, gov, condition, pending, join_arity, truths)?;
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
    gov: &Governor,
    mut sink: JoinSink<'_>,
    recheck: bool,
    js: &JoinSpill,
    l: &Relation,
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
        gov.checkpoint("join")?;
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
                gov.count().spilled_bytes += buf.len() as u64;
            }
            ordinal += 1;
        }
    }
    for file in js.build.iter().chain(js.probe.iter()) {
        file.seal()?;
    }

    // Per partition: rebuild that partition's buckets (this is the ladder's
    // last resort — a partition that cannot fit fails the query), then
    // stream its probe records and collect survivors.
    let mut survivors: Vec<(u64, Tuple)> = Vec::new();
    let mut pending: Vec<Tuple> = Vec::new();
    let mut segments: Vec<(u64, usize, usize)> = Vec::new();
    let mut truths: Vec<bool> = Vec::new();
    let l_tuples = l.tuples();
    for p in 0..js.build.len() {
        let mut buckets: HashMap<Vec<u8>, Vec<Tuple>> = HashMap::new();
        let mut stream = js.mgr.pool().stream(&js.build[p]);
        let mut since = 0usize;
        while let Some(record) = stream.next_record()? {
            let (key, tuple) = spill::decode_keyed_tuple(&record)?;
            if let Some(c) = charge.as_mut() {
                c.grow(key.len() as u64 + tuple_bytes(&tuple))?;
            }
            buckets.entry(key).or_default().push(tuple);
            since += 1;
            if since.is_multiple_of(BATCH_ROWS) {
                gov.checkpoint("join")?;
                probe.batch();
            }
        }
        let mut stream = js.mgr.pool().stream(&js.probe[p]);
        while let Some(record) = stream.next_record()? {
            let (ord, key) = spill::decode_probe(&record)?;
            let lt = &l_tuples[ord as usize];
            let mates = buckets.get(&key).map_or(&[][..], Vec::as_slice);
            if !recheck {
                // Bucket-mates are the matches: their output rows are built
                // here, once (a semi / anti join keeps only the fact), a
                // checkpoint per batch of them.
                let matches = if left_only {
                    mates.len().min(1)
                } else {
                    mates.len()
                };
                for rt in &mates[..matches] {
                    let row = match left_only {
                        true => Tuple::empty(),
                        false => sink.map.pair(lt, Some(rt)),
                    };
                    survivors.push((ord, row));
                    if survivors.len().is_multiple_of(BATCH_ROWS) {
                        gov.checkpoint("join")?;
                        probe.batch();
                    }
                }
                continue;
            }
            let start = pending.len();
            for rt in mates {
                pending.push(lt.concat(rt));
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
                    gov,
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
            gov,
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
            // This partition's buckets are about to drop.
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
/// pipeline breaker consumed batch by batch at its input boundary) is
/// bucketed under the column-wise key encoding
/// ([`encode_key_column_filtered`]) of its key values: each key column is
/// encoded in one contiguous pass, appending its bytes to every row's key
/// buffer. Rows whose key is NULL under a plain (non-null-safe) equality
/// can never match and are dropped from the hash table / probe (the encoder
/// marks them dead in the `live` mask). When empty (no usable equality, or
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
    gov: &Governor,
    l: &Relation,
    r: &Relation,
    out_schema: &Schema,
    kind: JoinKind,
    key_null_safe: &[bool],
    map: &ColumnMap,
    recheck: bool,
    mut left_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    mut right_keys: impl FnMut(&Batch<'_>, usize, &mut ColumnVec) -> Result<()>,
    mut condition: impl FnMut(&Batch<'_>, &mut Vec<bool>) -> Result<()>,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("join")?;
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
        // Build side: bucket the right rows by their encoded key values,
        // one batch of key evaluations at a time. Evaluating every key
        // column eagerly (where the tuple-at-a-time loop stopped at a
        // row's first NULL non-null-safe key) is safe because equi keys
        // are always bare column references (`extract_equi_keys` extracts
        // only `Column = Column` conjuncts, resolution-checked against the
        // input schemas), so key evaluation cannot raise an error the
        // early exit would have shielded.
        let mut buckets: HashMap<Vec<u8>, Vec<&Tuple>> = HashMap::new();
        let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); nkeys];
        let mut keys_buf: Vec<Vec<u8>> = Vec::new();
        let mut live: Vec<bool> = Vec::new();
        let mut js: Option<JoinSpill> = None;
        let mut rec_buf: Vec<u8> = Vec::new();
        for chunk in r.tuples().chunks(BATCH_ROWS) {
            gov.checkpoint("join")?;
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
            for (j, rt) in chunk.iter().enumerate() {
                if !live[j] {
                    continue;
                }
                // Move, don't clone: each row's key buffer is consumed
                // once (taking it leaves an empty Vec behind, which the
                // next chunk's reset reuses without reallocating).
                let key = std::mem::take(&mut keys_buf[j]);
                if charge.is_some() {
                    // Build-table growth: the encoded key plus the
                    // bucket-mate reference.
                    chunk_bytes += key.len() as u64 + std::mem::size_of::<&Tuple>() as u64;
                }
                buckets.entry(key).or_default().push(rt);
            }
            if let Some(c) = charge.as_mut() {
                if !c.try_grow(chunk_bytes)? {
                    // The build table no longer fits: go grace — partition
                    // everything bucketed so far to disk and free its
                    // budget immediately.
                    js = Some(spill_join_build(gov, r, &mut buckets)?);
                    c.release();
                }
            }
        }
        if let Some(js) = js {
            return grace_probe(
                probe,
                gov,
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

        // Probe side, batch-at-a-time: evaluate the key columns once per
        // probe batch and look each row's bucket up. Under `recheck` the
        // bucket-mates are gathered into the pending buffer and flushed
        // (condition + ordered emission) at left-row boundaries once a
        // batch worth of candidates has accumulated; otherwise they are the
        // matches and go out as they are found.
        let mut key_cols: Vec<ColumnVec> = vec![ColumnVec::default(); nkeys];
        let mut since_checkpoint = 0usize;
        for chunk in l.tuples().chunks(BATCH_ROWS) {
            gov.checkpoint("join")?;
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
                let mates: &[&Tuple] = match buckets.get(&keys_buf[j]) {
                    Some(mates) if live[j] => mates,
                    _ => &[],
                };
                if !recheck {
                    let before = sink.out.len();
                    if !kind.left_only_output() {
                        for rt in mates {
                            sink.out.push_unchecked(map.pair(lt, Some(rt)));
                            since_checkpoint += 1;
                            if since_checkpoint == BATCH_ROWS {
                                since_checkpoint = 0;
                                gov.checkpoint("join")?;
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
                for rt in mates {
                    pending.push(lt.concat(rt));
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
                        gov,
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
            gov,
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
            recheck_candidates(
                probe,
                gov,
                &mut condition,
                &pending,
                join_arity,
                &mut truths,
            )?;
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
/// (creating the partition files on first flush) and clears the resident
/// state. Records carry the group's creation ordinal so the merge phase can
/// restore global first-encounter order.
fn flush_agg_groups(
    gov: &Governor,
    files: &mut Option<(Rc<SpillManager>, Vec<Rc<HeapFile>>)>,
    groups: &mut Vec<(Vec<Value>, Vec<Accumulator>)>,
    ords: &mut Vec<u64>,
    index: &mut HashMap<Vec<u8>, usize>,
) -> Result<()> {
    if files.is_none() {
        let mgr = gov
            .spill()
            .expect("a refused try_grow guarantees a live spill manager");
        let mut parts = Vec::with_capacity(AGG_SPILL_PARTITIONS);
        for p in 0..AGG_SPILL_PARTITIONS {
            parts.push(mgr.create_file(&format!("agg-part-{p}"))?);
        }
        gov.count().spill_partitions += AGG_SPILL_PARTITIONS as u64;
        *files = Some((mgr, parts));
    }
    let (_, parts) = files.as_ref().expect("just created");
    let mut buf = Vec::new();
    for (key_bytes, idx) in index.drain() {
        let (key_values, accs) = &groups[idx];
        spill::encode_agg_group(ords[idx], &key_bytes, key_values, accs, &mut buf);
        parts[(fnv1a(&key_bytes) % AGG_SPILL_PARTITIONS as u64) as usize].append_record(&buf)?;
        gov.count().spilled_bytes += buf.len() as u64;
    }
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
/// the grouping equality, with no recheck — and emitted in
/// first-encounter order. A global aggregation (no GROUP BY) over an empty
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
    gov: &Governor,
    child: &Relation,
    out_schema: Schema,
    group_arity: usize,
    specs: &[AggSpec],
    mut eval: impl FnMut(&Batch<'_>, &mut [ColumnVec], &mut [Vec<Value>]) -> Result<()>,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("aggregate")?;
    let mut charge = gov.transient("aggregate");
    let in_arity = child.schema().arity();
    let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    // Per-group creation ordinals (parallel to `groups`): `next_ord` is
    // global and monotone across flushes, so after partition merging the
    // minimum ordinal per key is its global first encounter — unique, and
    // sorting by it restores exact first-encounter output order.
    let mut ords: Vec<u64> = Vec::new();
    let mut next_ord = 0u64;
    let mut spill_files: Option<(Rc<SpillManager>, Vec<Rc<HeapFile>>)> = None;
    let make_accs = || -> Vec<Accumulator> {
        specs
            .iter()
            .map(|s| Accumulator::new(s.func, s.distinct))
            .collect()
    };

    if group_arity == 0 {
        groups.push((Vec::new(), make_accs()));
        index.insert(Vec::new(), 0);
        ords.push(next_ord);
        next_ord += 1;
    }

    let mut group_cols: Vec<ColumnVec> = vec![ColumnVec::default(); group_arity];
    let mut agg_cols: Vec<Vec<Value>> = vec![Vec::new(); specs.len()];
    let mut keys_buf: Vec<Vec<u8>> = Vec::new();
    let mut live: Vec<bool> = Vec::new();
    for chunk in child.tuples().chunks(BATCH_ROWS) {
        gov.checkpoint("aggregate")?;
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
        for j in 0..chunk.len() {
            let key = std::mem::take(&mut keys_buf[j]);
            let group_index = match index.get(&key) {
                Some(&i) => i,
                None => {
                    // First encounter: materialise the group's
                    // representative values out of the column lanes (moved,
                    // not cloned — each cell is consumed at most once).
                    let key_values: Vec<Value> =
                        group_cols.iter_mut().map(|col| col.take_value(j)).collect();
                    groups.push((key_values, make_accs()));
                    index.insert(key, groups.len() - 1);
                    ords.push(next_ord);
                    next_ord += 1;
                    groups.len() - 1
                }
            };
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
                    index.insert(Vec::new(), 0);
                    ords.push(next_ord);
                    next_ord += 1;
                }
            }
        }
    }

    if spill_files.is_some() {
        // Out-of-core finish: flush the remainder, then merge each
        // partition independently — every occurrence of one key hashes to
        // the same partition, so a per-partition hash map sees all of its
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
        for file in parts {
            let mut part: HashMap<Vec<u8>, (u64, Vec<Value>, Vec<Accumulator>)> = HashMap::new();
            let mut stream = mgr.pool().stream(file);
            let mut since = 0usize;
            while let Some(record) = stream.next_record()? {
                let (ord, key_bytes, key_values, accs) = spill::decode_agg_group(&record)?;
                match part.entry(key_bytes) {
                    Entry::Occupied(mut e) => {
                        let slot = e.get_mut();
                        slot.0 = slot.0.min(ord);
                        for (a, b) in slot.2.iter_mut().zip(&accs) {
                            a.merge(b);
                        }
                    }
                    Entry::Vacant(e) => {
                        if let Some(c) = charge.as_mut() {
                            // One partition's merged state is the ladder's
                            // last resort — a partition that cannot fit
                            // fails the query.
                            c.grow(
                                key_values.iter().map(value_bytes).sum::<u64>()
                                    + (accs.len() * std::mem::size_of::<Accumulator>()) as u64,
                            )?;
                        }
                        e.insert((ord, key_values, accs));
                    }
                }
                since += 1;
                if since.is_multiple_of(BATCH_ROWS) {
                    gov.checkpoint("aggregate")?;
                    probe.batch();
                }
            }
            for (ord, key_values, accs) in part.into_values() {
                let mut row = key_values;
                for acc in &accs {
                    row.push(acc.finish());
                }
                merged.push((ord, Tuple::new(row)));
            }
            if let Some(c) = charge.as_mut() {
                // This partition's map just dropped; only the finished
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
    gov: &Governor,
    op: SetOpKind,
    all: bool,
    l: &Relation,
    r: &Relation,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("set_op")?;
    gov.checkpoint("set_op")?;
    probe.batch();
    if l.schema().arity() != r.schema().arity() {
        return Err(ExecError::Unsupported(
            "set operation over inputs of different arity".into(),
        ));
    }
    Ok(match (op, all) {
        (SetOpKind::Union, true) => l.bag_union(r),
        (SetOpKind::Union, false) => l.set_union(r),
        (SetOpKind::Intersect, true) => l.bag_intersect(r),
        (SetOpKind::Intersect, false) => l.set_intersect(r),
        (SetOpKind::Except, true) => l.bag_difference(r),
        (SetOpKind::Except, false) => l.set_difference(r),
    })
}

/// The sort-key comparator shared by the in-memory sort and the k-way run
/// merge: per-key `Value::sort_key` with the per-key direction applied.
fn cmp_key_rows(ka: &[Value], kb: &[Value], ascending: &[bool]) -> std::cmp::Ordering {
    for (i, asc) in ascending.iter().enumerate() {
        let ord = ka[i].sort_key(&kb[i]);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// The sort's resident buffer: the rows it was given (moved in, not
/// cloned) and their extracted key values in one row-major vector — one
/// per `ascending` entry per row, no allocation per row. Sorting it yields
/// a permutation; neither vector is reordered.
struct SortBuffer<'a> {
    ascending: &'a [bool],
    rows: Vec<Tuple>,
    keys: Vec<Value>,
}

impl SortBuffer<'_> {
    fn key(&self, row: usize) -> &[Value] {
        let n = self.ascending.len();
        &self.keys[row * n..(row + 1) * n]
    }

    /// The buffered rows' indices in sorted order. The sort is stable, so
    /// ties keep the input order.
    fn sorted_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| cmp_key_rows(self.key(a), self.key(b), self.ascending));
        order
    }

    /// Sorts the buffer and writes it out as one sorted run file, leaving
    /// it empty. Because a run is always a *consecutive* segment of the
    /// input, merging runs with a lowest-run-index tie-break later
    /// reproduces the stable in-memory sort order exactly.
    fn spill_run(&mut self, gov: &Governor, runs: &mut Vec<Rc<HeapFile>>) -> Result<()> {
        let mgr = gov
            .spill()
            .expect("a refused try_grow guarantees a live spill manager");
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
        Ok(())
    }
}

/// The next row of one sorted run inside the k-way merge. Ordered so that
/// [`BinaryHeap`] — a max-heap — pops the smallest `(key, run index)`
/// first: among equal keys the lowest run index wins, which is the stable
/// order.
struct RunHead<'a> {
    key: Vec<Value>,
    run: usize,
    tuple: Tuple,
    ascending: &'a [bool],
}

impl Ord for RunHead<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_key_rows(&other.key, &self.key, self.ascending).then(other.run.cmp(&self.run))
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
/// evaluates, for one batch, every sort-key expression into `key_cols[i]`;
/// `ascending` carries the per-key direction. The underlying sort is
/// stable, so ties keep the input order — which both drivers produce
/// identically. Under budget pressure with spilling enabled the operator
/// becomes an *external merge sort*: the buffer is flushed as sorted runs
/// ([`SortBuffer::spill_run`]) and the runs are k-way merged at the end
/// through a heap of run heads, with ties broken toward the lowest run
/// index — runs are consecutive input segments, so that tie-break *is* the
/// stable order.
pub(crate) fn sort(
    probe: OpProbe<'_>,
    gov: &Governor,
    child: Relation,
    ascending: &[bool],
    mut keys: impl FnMut(&Batch<'_>, &mut [Vec<Value>]) -> Result<()>,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("sort")?;
    let mut charge = gov.transient("sort");
    let schema = child.schema().clone();
    let arity = schema.arity();
    let mut input = child.into_tuples();
    let mut buffer = SortBuffer {
        ascending,
        rows: Vec::with_capacity(input.len()),
        keys: Vec::with_capacity(input.len() * ascending.len()),
    };
    let mut key_cols: Vec<Vec<Value>> = vec![Vec::new(); ascending.len()];
    let mut runs: Vec<Rc<HeapFile>> = Vec::new();
    for chunk in input.chunks_mut(BATCH_ROWS) {
        gov.checkpoint("sort")?;
        probe.batch();
        for col in key_cols.iter_mut() {
            col.clear();
        }
        let block = ColumnBlock::new(arity);
        keys(&Batch::dense_with_block(chunk, &block), &mut key_cols)?;
        let mut chunk_bytes = 0u64;
        for (j, tuple) in chunk.iter_mut().enumerate() {
            let first_key = buffer.keys.len();
            for col in key_cols.iter_mut() {
                buffer
                    .keys
                    .push(std::mem::replace(&mut col[j], Value::Null));
            }
            if charge.is_some() {
                // Sort-buffer growth: the extracted keys plus the row.
                chunk_bytes += buffer.keys[first_key..]
                    .iter()
                    .map(value_bytes)
                    .sum::<u64>()
                    + tuple_bytes(tuple);
            }
            buffer.rows.push(std::mem::take(tuple));
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
        keys: mut key_values,
        ..
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
        .expect("runs exist only when a spill manager is live");
    let mut streams: Vec<_> = runs.iter().map(|f| mgr.pool().stream(f)).collect();
    let nkeys = ascending.len();
    let mut resident = order.into_iter();
    // The next row of run `run`: a record of its file, or — past the last
    // file — of the resident remainder.
    let mut next_of = |run: usize| -> Result<Option<RunHead<'_>>> {
        let row = match streams.get_mut(run) {
            Some(stream) => match stream.next_record()? {
                Some(record) => Some(spill::decode_run_row(&record)?),
                None => None,
            },
            None => resident.next().map(|i| {
                let key = key_values[i * nkeys..(i + 1) * nkeys]
                    .iter_mut()
                    .map(|v| std::mem::replace(v, Value::Null))
                    .collect();
                (key, std::mem::take(&mut rows[i]))
            }),
        };
        Ok(row.map(|(key, tuple)| RunHead {
            key,
            run,
            tuple,
            ascending,
        }))
    };
    let mut heads = BinaryHeap::with_capacity(runs.len() + 1);
    for run in 0..=runs.len() {
        heads.extend(next_of(run)?);
    }
    let mut out = Relation::empty(schema);
    let mut emitted = 0usize;
    while let Some(mut head) = heads.peek_mut() {
        out.push_unchecked(std::mem::take(&mut head.tuple));
        emitted += 1;
        if emitted.is_multiple_of(BATCH_ROWS) {
            gov.checkpoint("sort")?;
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

/// First-`n` truncation.
pub(crate) fn limit(
    probe: OpProbe<'_>,
    gov: &Governor,
    child: Relation,
    n: usize,
) -> Result<Relation> {
    let _timer = profile::begin(&probe);
    gov.operator_event("limit")?;
    gov.checkpoint("limit")?;
    probe.batch();
    let schema = child.schema().clone();
    let tuples = child.into_tuples().into_iter().take(n).collect();
    Ok(Relation::new(schema, tuples)?)
}
