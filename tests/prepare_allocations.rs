//! Allocation gate for prepare: identifiers are shared, not copied.
//!
//! Every identifier a plan carries (attribute names and qualifiers,
//! projection and aggregate aliases, column references, free-column lists)
//! is a [`Name`], a reference-counted string, so copying a schema, a plan or
//! a column reference costs a reference-count increment instead of an
//! allocation. A `SELECT PROVENANCE` plan carries hundreds of renamed
//! witness attributes, and the optimizer rebuilds schemas and clones
//! subtrees many times per call, so this is most of what a cold prepare
//! allocates.
//!
//! The gate counts heap allocations (`alloc`, `alloc_zeroed` and `realloc`)
//! made by `optimize()` and by `Executor::prepare()` on two plans, and
//! requires each count to be at most half of what the same code made when
//! every identifier was a `String` of its own. `prepare` must also stay
//! strictly below what it made while it still copied the plan and fused
//! selections into joins itself: it now compiles exactly the plan it is
//! given, and the fusion is the optimizer's last step.
//!
//! | plan                                  | step       | `String` names | `Name` | as given |
//! |---------------------------------------|------------|---------------:|-------:|---------:|
//! | synth_corr's correlated `EXISTS`, Gen | `optimize` |          3 541 |  1 188 |    1 213 |
//! | synth_corr's correlated `EXISTS`, Gen | `prepare`  |            880 |    300 |      151 |
//! | TPC-H Q17, Auto                       | `optimize` |         18 499 |  4 276 |    4 423 |
//! | TPC-H Q17, Auto                       | `prepare`  |          5 814 |  1 427 |      601 |
//!
//! (`as given`: `prepare` compiles the optimized plan without copying it,
//! `optimize` ends with the fusion. Debug and release builds of this test
//! count the same.)
//!
//! The binary holds a single `#[test]` so that no other test allocates
//! while a count runs. The same test pins the sharing itself: a scan's
//! schema points at the catalog's names, `Schema::concat` copies no name,
//! and `Schema::with_qualifier` gives every attribute one qualifier.

use perm::core::{ProvenanceQuery, Strategy};
use perm::exec::optimize::optimize;
use perm::{Database, Executor};
use perm_algebra::{Plan, PlanBuilder};
use perm_tpch::{generate, sublink_queries, TpchScale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The rewritten provenance plan of `sql` under `strategy`, as a session
/// hands it to the optimizer.
fn provenance_plan(db: &Database, sql: &str, strategy: Strategy) -> Plan {
    let (bound, _) = perm::sql::compile(db, sql).expect("binds");
    ProvenanceQuery::new(db, &bound)
        .strategy(strategy)
        .rewrite()
        .expect("rewrites")
        .plan
}

/// Allocations of `optimize()` and of `Executor::prepare()` on `plan`.
fn prepare_allocations(db: &Database, plan: &Plan) -> (usize, usize) {
    let ((optimized, _), optimize_allocs) = allocations(|| optimize(plan));
    let (compiled, prepare_allocs) = allocations(|| Executor::new(db).prepare(&optimized));
    compiled.expect("compiles");
    (optimize_allocs, prepare_allocs)
}

fn assert_shares_names(db: &Database) {
    let catalog = db.table_schema("r1").expect("r1 exists");
    let scan = PlanBuilder::scan(db, "r1").expect("r1 exists").build();
    let scanned = scan.schema();
    for (ours, theirs) in scanned.attributes().iter().zip(catalog.attributes()) {
        assert!(
            Arc::ptr_eq(&ours.name, &theirs.name),
            "a scan's `{}` is a copy of the catalog's",
            ours.name
        );
    }
    let qualifier = scanned.attr(0).qualifier.clone().expect("qualified");
    for attr in scanned.attributes() {
        let q = attr.qualifier.as_ref().expect("qualified");
        assert!(
            Arc::ptr_eq(q, &qualifier),
            "with_qualifier gave `{}` its own qualifier",
            attr.name
        );
    }
    let other = db.table_schema("r2").expect("r2 exists");
    let both = catalog.concat(other);
    let sources = catalog.attributes().iter().chain(other.attributes());
    for (ours, theirs) in both.attributes().iter().zip(sources) {
        assert!(
            Arc::ptr_eq(&ours.name, &theirs.name),
            "concat copied `{}`",
            ours.name
        );
    }
    assert_eq!(both.arity(), catalog.arity() + other.arity());
}

#[test]
fn prepare_shares_identifiers_instead_of_copying_them() {
    let synth = perm_synthetic::build_database(80, 160, 42);
    assert_shares_names(&synth);
    let exists = provenance_plan(
        &synth,
        "SELECT a, b, g FROM r1 WHERE EXISTS \
         (SELECT * FROM r2 WHERE r2.b BETWEEN 100 AND 900 AND r2.g = r1.g)",
        Strategy::Gen,
    );

    let tpch = generate(TpchScale::new(0.0001), 42);
    let q17 = sublink_queries()
        .into_iter()
        .find(|t| t.id == 17)
        .expect("Q17 is a sublink template")
        .instantiate(42);
    let q17 = provenance_plan(&tpch, &q17, Strategy::Auto);

    // (optimize, prepare) with `String` identifiers, and prepare while it
    // copied the plan; see the module docs.
    let cases: [(&str, &Database, &Plan, [usize; 3]); 2] = [
        (
            "synth_corr EXISTS under Gen",
            &synth,
            &exists,
            [3_541, 880, 300],
        ),
        ("TPC-H Q17 under Auto", &tpch, &q17, [18_499, 5_814, 1_427]),
    ];
    for (what, db, plan, [optimize_before, prepare_before, prepare_copying]) in cases {
        let (optimize_now, prepare_now) = prepare_allocations(db, plan);
        eprintln!("{what}: optimize {optimize_now} allocations, prepare {prepare_now}");
        assert!(
            optimize_now * 2 <= optimize_before,
            "{what}: optimize() made {optimize_now} allocations, more than half of \
             {optimize_before}"
        );
        assert!(
            prepare_now * 2 <= prepare_before,
            "{what}: Executor::prepare() made {prepare_now} allocations, more than half of \
             {prepare_before}"
        );
        assert!(
            prepare_now < prepare_copying,
            "{what}: Executor::prepare() made {prepare_now} allocations, not fewer than the \
             {prepare_copying} it made copying the plan"
        );
    }
}
