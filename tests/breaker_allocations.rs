//! Allocation gate for breakers: a hash join, an aggregate and a sort key
//! on flat bytes, so none of them allocates per input row.
//!
//! The hash join interns each build key into one `KeyTable` arena from a
//! reused key buffer and lays its mates out once, the aggregate looks its
//! groups up the same way, and the sort encodes each row's key into one
//! byte arena. What is left per row is the output row itself, built once
//! (a sort keeps input indices, not rows, and builds each row as it emits
//! it — through the column map of a pass-through Π directly above), and,
//! for a spilled sort, the run record read back and the row decoded from
//! it; a grace join's build rows read back are decoded from records lent
//! by their pages.
//! The gate counts heap allocations (`alloc`, `alloc_zeroed` and
//! `realloc`) of one execution of a prepared plan and requires at most one
//! per output row (two for the spilled sort, three for Gen's nested loop,
//! four for the grace join)
//! plus [`PER_BATCH`] per input batch of `BATCH_ROWS` rows:
//!
//! | plan                                             | output rows | batches |  bound | `HashMap` keys | flat keys | one copy |
//! |--------------------------------------------------|------------:|--------:|-------:|---------------:|----------:|---------:|
//! | `r2 ⋈_g r1`, 16 ⋈ 20 000 rows (build r1)         |       9 990 |      21 | 12 678 |         50 404 |    12 143 |   12 143 |
//! | the same join grace under 256 KiB (4 / row)      |       9 990 |      21 | 42 648 |              — |    33 462 |   33 482 |
//! | `r1 ⋈_a r2`, matching, 20 000 ⋈ 5 000 rows       |       5 008 |      25 |  8 208 |         21 591 |     7 195 |    7 195 |
//! | `γ_{g; count(*)}(r1)`, 20 000 rows               |          32 |      20 |  2 592 |         40 182 |     2 238 |    2 238 |
//! | `ORDER BY b, a` over `r1`, 20 000 rows, resident |      20 000 |      20 | 22 560 |         20 073 |    20 086 |   20 085 |
//! | `Π_{a, b, a AS pa, b AS pb, g AS pg}` over it    |      20 000 |      20 | 22 560 |              — |    40 087 |   20 086 |
//! | the same sort under 256 KiB, spilled (2 / row)   |      20 000 |      20 | 42 560 |         77 711 |    57 585 |   39 152 |
//! | Gen's loop, `r1 ⋈_{C ∧ EXISTS ∧ scalar ∧ r2} r2`  |      10 000 |      21 | 32 688 |      (662 534) |  (10 421) |        — |
//!
//! (Gen's loop: `T⁺ × CrossBase` fused into a nested loop, 3 / row, whose
//! leading conjuncts read the left row alone; in brackets its count when
//! every conjunct was tested per (left row, right row) pair, and since they
//! run once per left row and each memo lookup builds its key in one reused
//! buffer — 26 081 when each key was built in fresh buffers. `one copy`:
//! since the sort keeps input indices and builds each row once, as it
//! emits it, instead of copying every input row into its buffer; the
//! spilled sort's bound was three per row before. `HashMap`
//! keys: when the join bucketed its build rows in a
//! `HashMap<Vec<u8>, Vec<&Tuple>>`, taking each row's key buffer, the
//! aggregate indexed its groups in a `HashMap<Vec<u8>, usize>` the same
//! way, and a spilled sort's run records carried the key as values,
//! decoded into a `Vec<Value>` per row read back. The resident sort was
//! already one allocation per row; its flat keys add the growth of one key
//! arena. A release and a debug build count the same.)
//!
//! The binary holds a single `#[test]` so that no other test allocates
//! while a count runs.

use perm::{Database, Executor};
use perm_algebra::builder::{
    cmp, conjunction, count_star, eq, exists_sublink, lit, qcol, scalar_sublink,
};
use perm_algebra::{CompareOp, Plan, PlanBuilder, ProjectItem, SortKey};
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

/// Allocations allowed per input batch beside [`PER_ROW`] per output row.
const PER_BATCH: usize = 128;

/// The memory budget of the spilled sort.
const BUDGET: u64 = 256 << 10;

/// One gated plan: its database, the rows of each table it scans, the
/// budget it runs under and the allocations it may make per output row.
struct Case<'a> {
    what: &'a str,
    db: &'a Database,
    plan: &'a Plan,
    scanned: &'a [usize],
    budget: Option<u64>,
    per_row: usize,
}

/// Output rows and allocations of one execution of `plan` (prepared first)
/// under `budget`, spilling when it is refused.
fn execution_allocations(db: &Database, plan: &Plan, budget: Option<u64>) -> (usize, usize) {
    let ex = Executor::new(db)
        .with_memory_budget(budget)
        .with_spill(budget.is_some());
    let compiled = ex.prepare(plan).expect("compiles");
    // A first execution warms whatever is allocated once per executor (the
    // spill store among it).
    ex.execute_compiled(&compiled).expect("executes");
    let spilled = ex.spill_partitions();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let rows = ex.execute_compiled(&compiled).expect("executes").len();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        budget.is_some(),
        ex.spill_partitions() > spilled,
        "a budgeted case must spill, a resident one must not"
    );
    (rows, allocations)
}

fn scan(db: &Database, table: &str) -> PlanBuilder {
    PlanBuilder::scan(db, table).expect("the synthetic tables exist")
}

fn scan_as(db: &Database, table: &str, alias: &str) -> PlanBuilder {
    PlanBuilder::scan_as(db, table, Some(alias)).expect("the synthetic tables exist")
}

#[test]
fn breakers_allocate_per_output_row_not_per_input_row() {
    let narrow = perm_synthetic::build_database(20_000, 16, 42);
    let build_r1 = scan(&narrow, "r2")
        .join(
            scan(&narrow, "r1").build(),
            eq(qcol("r2", "g"), qcol("r1", "g")),
        )
        .build();

    let matching = perm_synthetic::build_matching_database(20_000, 5_000, 42);
    let on_a = scan(&matching, "r1")
        .join(
            scan(&matching, "r2").build(),
            eq(qcol("r1", "a"), qcol("r2", "a")),
        )
        .build();

    let grouped = scan(&narrow, "r1")
        .aggregate(
            vec![ProjectItem::new(qcol("r1", "g"), "g")],
            vec![count_star("n")],
        )
        .build();

    let sorted = scan(&narrow, "r1")
        .sort(vec![
            SortKey::asc(qcol("r1", "b")),
            SortKey::asc(qcol("r1", "a")),
        ])
        .build();

    // Gen's selection fused into a nested loop over `T⁺ × CrossBase`: the
    // outer condition, a correlated EXISTS and a correlated scalar sublink
    // read the left row alone, and only the last conjunct reads the
    // CrossBase row. The group's r2 rows, as sublink bodies.
    let group = || scan_as(&narrow, "r2", "s").select(eq(qcol("s", "g"), qcol("r1", "g")));
    let gen_loop = scan(&narrow, "r1")
        .join(
            scan(&narrow, "r2").build(),
            conjunction([
                cmp(CompareOp::Lt, qcol("r1", "g"), lit(4)),
                exists_sublink(group().build()),
                cmp(
                    CompareOp::Ge,
                    scalar_sublink(group().aggregate(vec![], vec![count_star("n")]).build()),
                    lit(1),
                ),
                cmp(CompareOp::Ge, qcol("r2", "g"), lit(0)),
            ]),
        )
        .build();

    // The provenance shape over the sort: it builds each row, in sorted
    // order, through the Π's map.
    let item = |column, alias| ProjectItem::new(qcol("r1", column), alias);
    let witnessed = PlanBuilder::from_plan(sorted.clone())
        .project(vec![
            item("a", "a"),
            item("b", "b"),
            item("a", "pa"),
            item("b", "pb"),
            item("g", "pg"),
        ])
        .build();

    let case = |what, db, plan, scanned, budget, per_row| Case {
        what,
        db,
        plan,
        scanned,
        budget,
        per_row,
    };
    let cases = [
        case("r2 ⋈_g r1", &narrow, &build_r1, &[16, 20_000], None, 1),
        case("r1 ⋈_a r2", &matching, &on_a, &[20_000, 5_000], None, 1),
        // The output row, and for each of the 20 000 build rows read back
        // from its partition the row decoded from it (the record itself is
        // lent by its page): one per build row, two per output row here,
        // plus the partition files' pages. 33 462 allocations (53 604 when
        // every record read back was an owned copy).
        case(
            "r2 ⋈_g r1, grace",
            &narrow,
            &build_r1,
            &[16, 20_000],
            Some(BUDGET),
            4,
        ),
        case("γ_{g; count(*)}(r1)", &narrow, &grouped, &[20_000], None, 1),
        // The candidate behind each output row; the memo lookups of the
        // 2 500 left rows the outer condition keeps reuse one key buffer:
        // 10 421 allocations, 26 081 when each key was built in fresh
        // buffers, and 662 534 when every conjunct was tested per pair.
        case(
            "r1 ⋈_{C ∧ EXISTS ∧ scalar ∧ r2} r2, nested loop",
            &narrow,
            &gen_loop,
            &[20_000, 16],
            None,
            3,
        ),
        case("ORDER BY b, a", &narrow, &sorted, &[20_000], None, 1),
        case(
            "Π_{a, b, a AS pa, b AS pb, g AS pg}(ORDER BY b, a)",
            &narrow,
            &witnessed,
            &[20_000],
            None,
            1,
        ),
        // The run record and the row decoded from it.
        case(
            "ORDER BY b, a, spilled",
            &narrow,
            &sorted,
            &[20_000],
            Some(BUDGET),
            2,
        ),
    ];
    for Case {
        what,
        db,
        plan,
        scanned,
        budget,
        per_row,
    } in cases
    {
        let (rows, allocations) = execution_allocations(db, plan, budget);
        let batches: usize = scanned.iter().map(|n| n.div_ceil(BATCH_ROWS)).sum();
        let bound = per_row * rows + PER_BATCH * batches;
        eprintln!(
            "{what}: {rows} rows, {batches} batches, {allocations} allocations (bound {bound})"
        );
        assert!(
            allocations <= bound,
            "{what}: {allocations} allocations for {rows} output rows over {batches} batches, \
             more than {bound}: does a breaker allocate a key per input row again?"
        );
    }
}
