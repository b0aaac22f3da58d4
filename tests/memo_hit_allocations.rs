//! Allocation gate for the sublink memo's hit path: once a statement's memo
//! holds every binding, executing it again looks each correlated sublink up
//! per live row and must allocate nothing per lookup.
//!
//! The memo key — sublink id, database version, then the type-exact
//! encoding of the parameter and binding values — is built in one buffer
//! that the batch's lookups reuse, and copied only when an entry is
//! inserted. The gate counts heap allocations (`alloc`, `alloc_zeroed` and
//! `realloc`) of the second execution of a prepared σ with a correlated
//! `EXISTS` and a correlated scalar sublink, and requires at most one per
//! output row plus [`PER_BATCH`] per input batch of `BATCH_ROWS` rows:
//!
//! | plan                                               | output rows | lookups | batches |  bound | per-lookup keys | one buffer |
//! |----------------------------------------------------|------------:|--------:|--------:|-------:|----------------:|-----------:|
//! | `σ_{EXISTS ∧ scalar ≥ 1}(r1)`, 20 000 rows, 16 `g` |       6 254 |  26 254 |      20 |  8 814 |         137 740 |      6 590 |
//!
//! (`lookups`: an `EXISTS` lookup per row, then a scalar one per row the
//! `EXISTS` keeps. `per-lookup keys`: when each lookup cloned its values
//! into a fresh `Vec`, copied the id into another and encoded the values
//! into a third before the hit was known. What is left is the output row.
//! A release and a debug build count the same.)
//!
//! The binary holds a single `#[test]` so that no other test allocates
//! while a count runs.

use perm::Executor;
use perm_algebra::builder::{
    cmp, conjunction, count_star, eq, exists_sublink, lit, qcol, scalar_sublink,
};
use perm_algebra::{CompareOp, PlanBuilder};
use perm_exec::BATCH_ROWS;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a relaxed counter increment, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per input batch beside one per output row.
const PER_BATCH: usize = 128;

#[test]
fn a_memo_hit_allocates_nothing() {
    const ROWS: usize = 20_000;
    let db = perm_synthetic::build_database(ROWS, 16, 42);
    let scan = |table, alias| PlanBuilder::scan_as(&db, table, Some(alias)).expect("exists");
    // The group's r2 rows, as sublink bodies.
    let group = || scan("r2", "s").select(eq(qcol("s", "g"), qcol("r1", "g")));
    let plan = scan("r1", "r1")
        .select(conjunction([
            exists_sublink(group().build()),
            cmp(
                CompareOp::Ge,
                scalar_sublink(group().aggregate(vec![], vec![count_star("n")]).build()),
                lit(1),
            ),
        ]))
        .build();

    let ex = Executor::new(&db);
    let compiled = ex.prepare(&plan).expect("compiles");
    // The first execution fills the memo: one miss per sublink and group.
    ex.execute_compiled(&compiled).expect("executes");
    let warm = ex.stats();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = ex.execute_compiled(&compiled).expect("executes").len();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let stats = ex.stats();
    let lookups = stats.memo_hits - warm.memo_hits;
    assert_eq!(stats.memo_misses, warm.memo_misses, "every lookup hits");
    assert!(lookups >= ROWS as u64, "{lookups} lookups");

    let batches = ROWS.div_ceil(BATCH_ROWS);
    let bound = rows + PER_BATCH * batches;
    eprintln!(
        "{rows} rows, {lookups} memo hits, {batches} batches, {allocations} allocations \
         (bound {bound})"
    );
    assert!(
        allocations <= bound,
        "{allocations} allocations for {rows} output rows and {lookups} memo hits over \
         {batches} batches, more than {bound}: does a memo lookup build its key in fresh \
         buffers again?"
    );
}
