//! Batch-at-a-time execution: the tuple-block representation the physical
//! operators and the vectorized expression evaluator share, plus the
//! columnar [`ColumnBlock`] view the typed kernels run over.
//!
//! A [`Batch`] is a view over up to [`BATCH_ROWS`] consecutive tuples of a
//! materialised input (or of an operator-owned candidate buffer, e.g. the
//! joined rows a join is about to filter) together with an optional
//! **selection vector**: the indices of the rows that are still *live*.
//! Filters shrink the selection instead of copying survivors, and every
//! evaluator produces exactly one value per live row, in selection order —
//! so one expression is dispatched once per *batch* instead of once per
//! *tuple* (see `crate::physical`).
//!
//! On top of the row view sits the columnar layer: a batch may carry a
//! [`ColumnBlock`], one typed [`ColumnVec`] lane per attribute. A block
//! over rows a scan read from a stored table serves each column that has a
//! stored lane (see `perm_storage::TableLanes`, built once per table) as a
//! slice of it, in place — nothing is transposed per batch. Every other
//! column is transposed from the tuple block on first access and cached in
//! the block. The typed kernels of `crate::kernels` then run over
//! contiguous primitive slices (`i64`/`f64`/`i32`/`bool`/`String` plus a
//! packed validity bitmap) instead of matching a `Value` enum per row;
//! columns that mix representations fall back to a `Value`-vector lane with
//! unchanged row-at-a-time semantics. Rows are only re-materialised at
//! pipeline breakers, at a sublink's result (which the memo seam exchanges
//! only as a summary: an `EXISTS` flag, a scalar value or an `ANY` / `ALL`
//! probe), and at the `Rows` output boundary.
//!
//! A conjunction narrows a `LiveRows` set conjunct by conjunct: a row a
//! conjunct finds FALSE leaves it, one it finds UNKNOWN stays for the later
//! conjuncts but can no longer survive.
//!
//! ## Selection-vector invariants
//!
//! Every selection vector handled by this crate obeys, and may rely on:
//!
//! 1. **Ascending and duplicate-free** — indices are strictly increasing,
//!    so iterating a batch visits rows in their input order (operator
//!    output order is part of the engine's semantics: a stable sort above
//!    must see both drivers produce identical tie order).
//! 2. **In bounds** — every index is `< rows.len()`.
//! 3. **Alignment** — an evaluator called on a batch with `n` live rows
//!    appends exactly `n` values, the `i`-th belonging to the `i`-th live
//!    row.
//! 4. **Empty means untouched** — no live rows ⇒ no expression is
//!    evaluated, so a deferred error (unresolved column, unbound
//!    parameter) behind an empty selection is never raised, exactly like
//!    the interpreter, which never reaches those rows. The typed kernels
//!    inherit this: an empty batch short-circuits before any lane is
//!    touched. A row evaluated alone (batching off, or the replay of a
//!    failing batch) is a dense batch of one, with no column block.
//!
//! ## Column-block invariants
//!
//! 1. **Validity ⇔ `Value::Null`** — slot `i` of a typed lane is invalid
//!    exactly when row `i`'s value is `Value::Null`; invalid payloads are
//!    never observable.
//! 2. **Lanes are dense** — a lane always covers *all* rows of the block,
//!    in row order: a stored lane from the block's first row's ordinal on
//!    ([`Lane::start`]), a transposed one from its entry 0. A selection is
//!    applied by gathering from the lane (or, for a column with no stored
//!    lane and none cached yet, by classifying only the live rows). Kernel
//!    outputs are in selection order, per invariant 3 above.
//! 3. **Representation-preserving** — a lane never coerces (`Date(3)`
//!    stays distinct from `Int(3)`); a column mixing variants demotes to
//!    the `Values` fallback lane, which the fallback-row counters report.
//!
//! Pipeline breakers (aggregation, sorting, set operations, the join build
//! side) consume batches at their input boundary and materialise; scans,
//! selections, projections and limits pass batches on, pull by pull, in
//! the one compiled driver (`crate::pipeline`) — a drain pulls everything
//! at once, a cursor a few rows at a time.

use std::cell::{Cell, OnceCell};

use perm_storage::{ColumnVec, TableLanes, Truth, Tuple};

/// Target number of rows per batch. Large enough to amortise one dispatch
/// per expression per batch down to noise, small enough that a batch of
/// wide provenance tuples stays cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// The stored lanes under a run of rows a scan handed on: the table's
/// lanes, and the ordinal of the run's first row in the table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window<'s> {
    pub(crate) lanes: &'s TableLanes,
    pub(crate) start: usize,
}

impl<'s> Window<'s> {
    /// The window of the rows from `offset` on.
    pub(crate) fn at(self, offset: usize) -> Window<'s> {
        Window {
            start: self.start + offset,
            ..self
        }
    }
}

/// One attribute of a block as a lane: the block's row `i` is entry
/// `start + i` of `col`.
#[derive(Debug, Clone, Copy)]
pub struct Lane<'b> {
    /// The lane: a stored table's or one transposed from the block.
    pub col: &'b ColumnVec,
    /// The entry of the block's first row.
    pub start: usize,
}

/// The columnar view of one tuple block: one [`ColumnVec`] lane per
/// attribute, shared by every expression evaluated over the block (all the
/// predicates and projections of one operator invocation, and — through
/// [`Batch::narrow`] — their sub-selections). A column with a stored lane
/// is read from it in place; any other is transposed at most once, on
/// first access.
#[derive(Debug)]
pub struct ColumnBlock<'s> {
    lanes: Vec<OnceCell<ColumnVec>>,
    stored: Option<Window<'s>>,
    used: Cell<bool>,
}

impl<'s> ColumnBlock<'s> {
    /// An empty block with one (unmaterialised) lane per attribute.
    pub fn new(arity: usize) -> ColumnBlock<'s> {
        ColumnBlock::over(arity, None)
    }

    /// A block whose columns are read from `stored` where it has a lane.
    pub(crate) fn over(arity: usize, stored: Option<Window<'s>>) -> ColumnBlock<'s> {
        ColumnBlock {
            lanes: (0..arity).map(|_| OnceCell::new()).collect(),
            stored,
            used: Cell::new(false),
        }
    }

    /// The lane for attribute `index`: the stored one, or one transposed
    /// from `rows` on first access. `rows` must be the same tuple block on
    /// every call.
    pub fn lane(&self, rows: &[Tuple], index: usize) -> Lane<'_> {
        if let Some(lane) = self.stored_lane(index) {
            return lane;
        }
        let col = self.lanes[index].get_or_init(|| {
            let first = rows
                .iter()
                .map(|t| t.get(index))
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(perm_storage::Value::Null);
            let mut col = ColumnVec::typed_for(&first, rows.len());
            for t in rows {
                col.push_value(t.get(index).clone());
            }
            col
        });
        Lane { col, start: 0 }
    }

    /// The lane for attribute `index` if it is stored or has already been
    /// transposed.
    pub fn cached(&self, index: usize) -> Option<Lane<'_>> {
        self.stored_lane(index).or_else(|| {
            let col = self.lanes.get(index)?.get()?;
            Some(Lane { col, start: 0 })
        })
    }

    fn stored_lane(&self, index: usize) -> Option<Lane<'s>> {
        let stored = self.stored?;
        Some(Lane {
            col: stored.lanes.lane(index)?,
            start: stored.start,
        })
    }

    /// Records that the block served a columnar access; `true` on the
    /// first call only (the executor's `columnar_blocks` counter counts
    /// blocks touched, not accesses).
    pub fn note_first_use(&self) -> bool {
        !self.used.replace(true)
    }
}

/// The rows of a batch a conjunction has not found FALSE, narrowed conjunct
/// by conjunct, and those of them some conjunct found UNKNOWN: those still
/// evaluate the later conjuncts — the interpreter's short-circuit evaluates
/// `UNKNOWN AND x` — but cannot survive.
#[derive(Debug, Default)]
pub(crate) struct LiveRows {
    /// Row indices (into [`Batch::rows`]), ascending; `None` while every
    /// live row of the batch is.
    live: Option<Vec<usize>>,
    /// Indexed by row index; empty until a conjunct finds a row UNKNOWN.
    unknown: Vec<bool>,
}

impl LiveRows {
    /// The rows left, as a narrowing of `batch`.
    pub(crate) fn batch<'b>(&'b self, batch: &Batch<'b>) -> Batch<'b> {
        match &self.live {
            None => *batch,
            Some(live) => batch.narrow(live),
        }
    }

    /// Whether no conjunct has narrowed the batch yet.
    pub(crate) fn is_whole(&self) -> bool {
        self.live.is_none()
    }

    /// Whether no row is left.
    pub(crate) fn is_empty(&self, batch: &Batch<'_>) -> bool {
        match &self.live {
            None => batch.is_empty(),
            Some(live) => live.is_empty(),
        }
    }

    /// Narrows by one conjunct: `truth(k, row)` is its truth on the `k`-th
    /// row left, whose index is `row`. FALSE drops the row; UNKNOWN marks it.
    pub(crate) fn retain(
        &mut self,
        batch: &Batch<'_>,
        mut truth: impl FnMut(usize, usize) -> Truth,
    ) {
        let mark = |unknown: &mut Vec<bool>, row: usize| {
            if unknown.is_empty() {
                unknown.resize(batch.rows().len(), false);
            }
            unknown[row] = true;
        };
        match &mut self.live {
            Some(live) => {
                let mut kept = 0;
                for k in 0..live.len() {
                    let row = live[k];
                    match truth(k, row) {
                        Truth::False => continue,
                        Truth::Unknown => mark(&mut self.unknown, row),
                        Truth::True => {}
                    }
                    live[kept] = row;
                    kept += 1;
                }
                live.truncate(kept);
            }
            None => {
                let mut live: Option<Vec<usize>> = None;
                for k in 0..batch.len() {
                    let row = batch.row_index(k);
                    match truth(k, row) {
                        Truth::False => {
                            live.get_or_insert_with(|| {
                                let mut rows = Vec::with_capacity(batch.len());
                                rows.extend((0..k).map(|j| batch.row_index(j)));
                                rows
                            });
                            continue;
                        }
                        Truth::Unknown => mark(&mut self.unknown, row),
                        Truth::True => {}
                    }
                    if let Some(live) = &mut live {
                        live.push(row);
                    }
                }
                self.live = live;
            }
        }
    }

    /// [`LiveRows::retain`] for a conjunct that cannot be UNKNOWN on any row
    /// left: `keep(row)` is whether it is TRUE. Branch-free over a dense
    /// batch.
    pub(crate) fn retain_known(&mut self, batch: &Batch<'_>, mut keep: impl FnMut(usize) -> bool) {
        let live = match (&mut self.live, batch.selection()) {
            (Some(live), _) => live,
            (None, Some(sel)) => self.live.insert(sel.to_vec()),
            (None, None) => {
                let mut live = vec![0; batch.len()];
                let mut kept = 0;
                for row in 0..batch.len() {
                    live[kept] = row;
                    kept += usize::from(keep(row));
                }
                live.truncate(kept);
                self.live = Some(live);
                return;
            }
        };
        let mut kept = 0;
        for k in 0..live.len() {
            let row = live[k];
            live[kept] = row;
            kept += usize::from(keep(row));
        }
        live.truncate(kept);
    }

    /// Appends whether the conjunction is TRUE on each live row of the
    /// batch, in order: O(rows left) over a dense batch with no UNKNOWN.
    pub(crate) fn verdicts(&self, batch: &Batch<'_>, out: &mut Vec<bool>) {
        let start = out.len();
        match (&self.live, batch.selection(), self.unknown.is_empty()) {
            (None, None, true) => out.resize(start + batch.len(), true),
            (Some(live), None, true) => {
                out.resize(start + batch.len(), false);
                for &row in live {
                    out[start + row] = true;
                }
            }
            _ => out.extend(self.truths(batch).map(Truth::is_true)),
        }
    }

    /// The truth of the conjunction on the `k`-th live row of the batch,
    /// for each `k` in order: FALSE where a conjunct was, else UNKNOWN where
    /// one was, else TRUE.
    pub(crate) fn truths<'r>(&'r self, batch: &'r Batch<'_>) -> impl Iterator<Item = Truth> + 'r {
        let mut left = self
            .live
            .as_deref()
            .map(<[usize]>::iter)
            .map(Iterator::peekable);
        (0..batch.len()).map(move |k| {
            let row = batch.row_index(k);
            if let Some(left) = &mut left {
                if left.next_if_eq(&&row).is_none() {
                    return Truth::False;
                }
            }
            match self.unknown.get(row) {
                Some(true) => Truth::Unknown,
                _ => Truth::True,
            }
        })
    }
}

/// A block of tuples with an optional selection vector and an optional
/// columnar view. `sel: None` means all rows are live (the dense fast
/// path — no selection allocation); `cols: None` means slot lanes are
/// classified straight from the live rows, uncached.
#[derive(Debug, Clone, Copy)]
pub struct Batch<'a> {
    rows: &'a [Tuple],
    sel: Option<&'a [usize]>,
    cols: Option<&'a ColumnBlock<'a>>,
}

impl<'a> Batch<'a> {
    /// A batch over `rows` with every row live and no columnar view.
    pub fn dense(rows: &'a [Tuple]) -> Batch<'a> {
        Batch {
            rows,
            sel: None,
            cols: None,
        }
    }

    /// A dense batch backed by a [`ColumnBlock`] over the same rows, so
    /// every expression evaluated on it shares one columnar view.
    pub fn dense_with_block(rows: &'a [Tuple], cols: &'a ColumnBlock<'a>) -> Batch<'a> {
        Batch {
            rows,
            sel: None,
            cols: Some(cols),
        }
    }

    /// This batch narrowed to the rows named by `sel` (indices into
    /// [`Batch::rows`]; must satisfy the module-level selection-vector
    /// invariants), keeping the columnar view so sub-selections — CASE arms, the
    /// undecided rows of AND/OR — still gather from cached lanes.
    pub fn narrow<'b>(&self, sel: &'b [usize]) -> Batch<'b>
    where
        'a: 'b,
    {
        debug_assert!(
            sel.windows(2).all(|w| w[0] < w[1]),
            "selection not ascending"
        );
        debug_assert!(
            sel.iter().all(|&i| i < self.rows.len()),
            "selection out of bounds"
        );
        Batch {
            rows: self.rows,
            sel: Some(sel),
            cols: self.cols,
        }
    }

    /// The underlying row block (live and dead rows alike).
    pub fn rows(&self) -> &'a [Tuple] {
        self.rows
    }

    /// The selection vector, if the batch is not dense.
    pub fn selection(&self) -> Option<&'a [usize]> {
        self.sel
    }

    /// The shared columnar view, if the batch carries one.
    pub fn columns(&self) -> Option<&'a ColumnBlock<'a>> {
        self.cols
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        match self.sel {
            Some(sel) => sel.len(),
            None => self.rows.len(),
        }
    }

    /// `true` when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th live row (0-based over the selection).
    pub fn row(&self, i: usize) -> &'a Tuple {
        match self.sel {
            Some(sel) => &self.rows[sel[i]],
            None => &self.rows[i],
        }
    }

    /// Iterates over the live rows in selection order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Tuple> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// The index (into [`Batch::rows`]) of the `i`-th live row.
    pub fn row_index(&self, i: usize) -> usize {
        match self.sel {
            Some(sel) => sel[i],
            None => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_storage::Value;

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect()
    }

    #[test]
    fn dense_batches_expose_every_row() {
        let r = rows(4);
        let b = Batch::dense(&r);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.row(2).get(0), &Value::Int(2));
        assert_eq!(b.row_index(2), 2);
        let collected: Vec<i64> = b
            .iter()
            .map(|t| match t.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(collected, vec![0, 1, 2, 3]);
    }

    #[test]
    fn selection_restricts_and_preserves_order() {
        let r = rows(5);
        let sel = [1usize, 3, 4];
        let b = Batch::dense(&r).narrow(&sel);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row(0).get(0), &Value::Int(1));
        assert_eq!(b.row_index(1), 3);
        let empty: [usize; 0] = [];
        assert!(Batch::dense(&r).narrow(&empty).is_empty());
    }

    #[test]
    fn column_block_lanes_are_lazy_shared_and_typed() {
        let r: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    if i % 2 == 0 {
                        Value::Int(i)
                    } else {
                        Value::Null
                    },
                    Value::str(format!("s{i}")),
                ])
            })
            .collect();
        let block = ColumnBlock::new(2);
        assert!(block.cached(0).is_none());
        assert!(block.note_first_use());
        assert!(!block.note_first_use(), "only the first use reports");

        let lane = block.lane(&r, 0);
        assert!(lane.col.is_typed());
        assert_eq!(lane.start, 0);
        assert_eq!(lane.col.value_at(0), Value::Int(0));
        assert_eq!(lane.col.value_at(1), Value::Null);
        // Second access returns the same materialised lane.
        let again = block.cached(0).expect("lane cached after first access");
        assert!(std::ptr::eq(lane.col, again.col));
    }

    #[test]
    fn narrow_keeps_rows_and_columns() {
        let r = rows(6);
        let block = ColumnBlock::new(1);
        let b = Batch::dense_with_block(&r, &block);
        assert!(b.columns().is_some());
        let sel = [0usize, 2, 5];
        let n = b.narrow(&sel);
        assert_eq!(n.len(), 3);
        assert_eq!(n.row(2).get(0), &Value::Int(5));
        assert!(
            n.columns().is_some(),
            "narrowing must keep the columnar view"
        );
        // A batch without a view stays without one.
        assert!(Batch::dense(&r).narrow(&sel).columns().is_none());
    }
}
