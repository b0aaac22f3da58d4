//! Allocation gate for scans: an operator over a stored table copies only
//! the rows it keeps.
//!
//! A scan borrows the catalog's rows in place; the first copy of a stored
//! row is made by the operator that emits it — a selection's survivor, a
//! join's output row — so the rows a selection drops, and every row a join
//! only reads, cost no allocation. The gate counts heap allocations
//! (`alloc`, `alloc_zeroed` and `realloc`) of one execution of a prepared
//! plan, or of one drain of a [`perm::Rows`] cursor over it, and requires
//! at most one per output row plus a constant per input batch of
//! `BATCH_ROWS` rows (the expression lanes and column blocks of each batch;
//! the join's share also covers one batch of probe-key buffers, allocated
//! once and reused) and per refill of the cursor (1, 2, 4, … up to
//! `BATCH_ROWS` rows each). The constant is [`PER_BATCH`], except for the
//! executed σ (alone or under a pass-through Π), whose batches read the
//! stored lane of `b` in place and narrow one selection vector by both
//! conjuncts of the `BETWEEN` ([`SELECT_PER_BATCH`]):
//!
//! | plan                                         | output rows |         batches |  bound | copying scan | borrowing scan | stored lanes | one copy |
//! |----------------------------------------------|------------:|----------------:|-------:|-------------:|---------------:|-------------:|---------:|
//! | `σ_{b BETWEEN lo AND hi}(r1)`, 20 000 rows   |       1 498 |              20 |  1 818 |       20 457 |          1 954 |        1 553 |    1 553 |
//! | `r1 ⋈_{r1.g = r2.g} r2`, 20 000 ⋈ 16 rows    |       9 990 |              21 | 12 678 |       32 191 |         12 172 |       12 174 |   12 141 |
//! | the `σ` above, drained by a cursor           |       1 498 | 20 + 11 refills |  5 466 |       29 186 |          4 115 |        1 904 |    1 904 |
//! | `Π_{a,b}(r1)`, drained by a cursor           |      20 000 | 20 + 29 refills | 26 272 |       40 178 |         20 033 |       20 034 |   20 034 |
//! | `Π_{a, b, a AS pa, b AS pb, g AS pg}(σ)`     |       1 498 |              20 |  1 818 |            — |              — |        3 052 |    1 554 |
//! | `σ_{a = ANY (Π_a(σ(r2)))}(r1)`, 20 000 rows  |         469 |         20 + 5 |  3 669 |            — |              — |       20 663 |      703 |
//!
//! (`one copy`: since a σ builds each survivor through the column map of
//! the pass-through Π directly above it, instead of copying it for the Π
//! to gather again, and an `= ANY` probe encodes each test value into one
//! reused buffer instead of a key allocated per probed row. The `σ_{…
//! ANY …}` case runs on `build_matching_database(20 000, 5 000)`.
//! `copying scan`: when `physical::scan` still copied the whole stored
//! table — one allocation per stored row — or, for the cursor, when it ran
//! a streaming spine of its own whose scan cloned every stored row it was
//! pulled for. The σ and the join counted 1 953 and 12 173 before
//! `execute` drained the cursor's pipeline. `borrowing scan`: before the
//! σ read stored lanes, when each batch transposed `b` out of the rows and
//! built a literal lane and a `Bool` lane per comparison. Debug and
//! release builds of this test count the same.)
//!
//! The binary holds a single `#[test]` so that no other test allocates
//! while a count runs.

use perm::{Database, Executor};
use perm_algebra::builder::{any_sublink, between, eq, lit, qcol};
use perm_algebra::{CompareOp, Plan, PlanBuilder, ProjectItem};
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

/// [`PER_BATCH`] for the executed σ over the stored `r1`.
const SELECT_PER_BATCH: usize = 16;

/// Output rows and allocations of one execution of `plan`, prepared first.
fn execution_allocations(db: &Database, plan: &Plan) -> (usize, usize) {
    let ex = Executor::new(db);
    let compiled = ex.prepare(plan).expect("compiles");
    // A first execution warms whatever is allocated once per executor.
    ex.execute_compiled(&compiled).expect("executes");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = ex.execute_compiled(&compiled).expect("executes").len();
    (rows, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Output rows and allocations of one drain of a cursor over `plan`,
/// prepared first.
fn stream_allocations(db: &Database, plan: &Plan) -> (usize, usize) {
    let ex = Executor::new(db);
    let compiled = ex.prepare(plan).expect("compiles");
    ex.open(&compiled).expect("opens").for_each(drop);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut rows = 0;
    for row in ex.open(&compiled).expect("opens") {
        row.expect("streams");
        rows += 1;
    }
    (rows, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The refills of a cursor that yields `rows` rows: 1, 2, 4, … up to
/// `BATCH_ROWS` rows each, until one comes back short.
fn refills(rows: usize) -> usize {
    let (mut want, mut left, mut refills) = (1, rows, 1);
    while left >= want {
        left -= want;
        want = (want * 2).min(BATCH_ROWS);
        refills += 1;
    }
    refills
}

/// One gated plan: its database, the rows of each table it scans, whether
/// a cursor drains it, and the allocations it may make per batch.
struct Case<'a> {
    what: &'a str,
    db: &'a Database,
    plan: &'a Plan,
    scanned: &'a [usize],
    streamed: bool,
    per_batch: usize,
}

fn scan(db: &Database, table: &str) -> PlanBuilder {
    PlanBuilder::scan(db, table).expect("the synthetic tables exist")
}

#[test]
fn scans_copy_only_the_rows_an_operator_emits() {
    let selective = perm_synthetic::build_database(20_000, 2_000, 42);
    let range = perm_synthetic::random_range(20_000, 2_000, 42);
    let select = scan(&selective, "r1")
        .select(between(
            qcol("r1", "b"),
            lit(range.r1_low),
            lit(range.r1_high),
        ))
        .build();

    let narrow = perm_synthetic::build_database(20_000, 16, 42);
    let join = scan(&narrow, "r1")
        .join(
            scan(&narrow, "r2").build(),
            eq(qcol("r1", "g"), qcol("r2", "g")),
        )
        .build();

    let columns = scan(&selective, "r1").project_columns(&["a", "b"]).build();

    // The provenance shape: the σ builds each survivor through the Π's map.
    let item = |column, alias| ProjectItem::new(qcol("r1", column), alias);
    let witnessed = PlanBuilder::from_plan(select.clone())
        .project(vec![
            item("a", "a"),
            item("b", "b"),
            item("a", "pa"),
            item("b", "pb"),
            item("g", "pg"),
        ])
        .build();

    // An uncorrelated `= ANY` σ: one probe, each test key encoded into one
    // reused buffer.
    let matching = perm_synthetic::build_matching_database(20_000, 5_000, 42);
    let listed_range = perm_synthetic::random_range(20_000, 5_000, 42);
    let listed = scan(&matching, "r2")
        .select(between(
            qcol("r2", "b"),
            lit(listed_range.r2_low),
            lit(listed_range.r2_high),
        ))
        .project_columns(&["a"])
        .build();
    let any = scan(&matching, "r1")
        .select(any_sublink(qcol("r1", "a"), CompareOp::Eq, listed))
        .build();

    let case = |what, db, plan, scanned, streamed, per_batch| Case {
        what,
        db,
        plan,
        scanned,
        streamed,
        per_batch,
    };
    let cases = [
        case(
            "σ(r1)",
            &selective,
            &select,
            &[20_000],
            false,
            SELECT_PER_BATCH,
        ),
        case("r1 ⋈ r2", &narrow, &join, &[20_000, 16], false, PER_BATCH),
        case(
            "Rows over σ(r1)",
            &selective,
            &select,
            &[20_000],
            true,
            PER_BATCH,
        ),
        case(
            "Rows over Π_{a,b}(r1)",
            &selective,
            &columns,
            &[20_000],
            true,
            PER_BATCH,
        ),
        case(
            "Π_{a, b, a AS pa, b AS pb, g AS pg}(σ(r1))",
            &selective,
            &witnessed,
            &[20_000],
            false,
            SELECT_PER_BATCH,
        ),
        case(
            "σ_{a = ANY (Π_a(σ(r2)))}(r1)",
            &matching,
            &any,
            &[20_000, 5_000],
            false,
            PER_BATCH,
        ),
    ];
    for Case {
        what,
        db,
        plan,
        scanned,
        streamed,
        per_batch,
    } in cases
    {
        let (rows, allocations) = match streamed {
            false => execution_allocations(db, plan),
            true => stream_allocations(db, plan),
        };
        let mut batches: usize = scanned.iter().map(|n| n.div_ceil(BATCH_ROWS)).sum();
        if streamed {
            batches += refills(rows);
        }
        let bound = rows + per_batch * batches;
        eprintln!(
            "{what}: {rows} rows, {batches} batches, {allocations} allocations (bound {bound})"
        );
        assert!(
            allocations <= bound,
            "{what}: {allocations} allocations for {rows} output rows over {batches} batches, \
             more than {bound}: is a scan copying the stored rows again?"
        );
    }
}
