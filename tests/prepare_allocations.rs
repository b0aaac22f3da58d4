//! Allocation gate for prepare: identifiers and subtrees are shared, not
//! copied.
//!
//! Every identifier a plan carries (attribute names and qualifiers,
//! projection and aggregate aliases, column references, free-column lists)
//! is a [`Name`], an 8-byte `Copy` handle into the process-wide interner,
//! so copying a schema, a plan or a column reference copies no text and
//! bumps no reference count. A `SELECT PROVENANCE` plan carries hundreds of
//! renamed witness attributes. The plan's operators are shared the same
//! way: every child and every sublink plan is a [`PlanRef`] that caches its
//! schema and free columns, a rule rebuilds only the spine above what it
//! changes, and a pass that fires nothing hands its input back.
//!
//! The gate counts heap allocations (`alloc`, `alloc_zeroed` and `realloc`)
//! made by `optimize()` and by `Executor::prepare()` on two plans, and by a
//! second `optimize()` of the optimized plan, and bounds each count at the
//! `one chain` column below plus less than 5 %. The second `optimize()` must
//! also fire no rule and hand back a root whose children are the very
//! nodes of its input ([`PlanRef::ptr_eq`]): a quiet pass is a walk. What
//! it still allocates is the root's copy, the item marks the liveness pass
//! keeps for each projection it checks and, on Q17, the conjuncts
//! the decorrelation rule splits off a selection whose sublinks it cannot
//! unnest.
//!
//! | plan                                  | step             | `String` names | `Arc<str>` names | as given | shared | interned | one chain |
//! |---------------------------------------|------------------|---------------:|-----------------:|---------:|-------:|---------:|----------:|
//! | synth_corr's correlated `EXISTS`, Gen | `optimize`       |          3 541 |            1 188 |    1 213 |    334 |      329 |       323 |
//! | synth_corr's correlated `EXISTS`, Gen | `prepare`        |            880 |              300 |      151 |    115 |      112 |       112 |
//! | synth_corr's correlated `EXISTS`, Gen | `optimize` again |                |                  |          |      6 |        6 |         6 |
//! | TPC-H Q17, Auto                       | `optimize`       |         18 499 |            4 276 |    4 423 |  1 496 |    1 477 |     1 456 |
//! | TPC-H Q17, Auto                       | `prepare`        |          5 814 |            1 427 |      601 |    340 |      332 |       332 |
//! | TPC-H Q17, Auto                       | `optimize` again |                |                  |          |     20 |       20 |        14 |
//!
//! (`Arc<str>` names: reference-counted names, each plan copy a count
//! increment; `as given`: `prepare` compiles the optimized plan without
//! copying it, `optimize` ends with the fusion; `shared`: plan nodes shared
//! and annotated; `interned`: names are interned handles; `one chain`: a
//! scope chain is borrowed links on the stack, where `plan_is_total`
//! collected a vector of shared schemas for every operator it judged, a
//! pass two sublinks deep one per check, and the sort and outer-join checks
//! put a schema in a new `Arc` — what the bounds below hold. Interned names take few
//! allocations off because a count increment never allocated; what they
//! take off is time, every copy and every resolution being a word compare.
//! Debug and release builds of this test count the same.)
//!
//! Q17's `optimize` count rose from 1 257 to the `shared` column's when the
//! fold and pushdown rules began to run inside sublink bodies. A body that
//! changes makes its holder rebuild the expression around the sublink, and
//! `Expr::rewrite` copies the unchanged siblings on that path — here the
//! whole `Csub⁺` condition of the Gen rewrite, once per pass that changes
//! the membership body.
//!
//! The binary holds a single `#[test]` so that no other test allocates
//! while a count runs. The same test pins the identity of names: a scan's
//! names are the catalog's, `Schema::concat` keeps its inputs' names, and
//! `Schema::with_qualifier` gives every attribute the one qualifier — and
//! none of these interns a name.

use perm::core::{ProvenanceQuery, Strategy};
use perm::optimize::optimize;
use perm::{Database, Executor};
use perm_algebra::{Plan, PlanBuilder, PlanRef};
use perm_storage::Name;
use perm_tpch::{generate, sublink_queries, TpchScale};
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

/// Allocations of `optimize()` and of `Executor::prepare()` on `plan`, and
/// of `optimize()` once more on what the first call returned.
fn prepare_allocations(what: &str, db: &Database, plan: &Plan) -> [usize; 3] {
    let ((optimized, _), optimize_allocs) = allocations(|| optimize(plan));
    let (compiled, prepare_allocs) = allocations(|| Executor::new(db).prepare(&optimized));
    compiled.expect("compiles");
    let ((again, report), quiet_allocs) = allocations(|| optimize(&optimized));
    assert_eq!(
        report.rules_fired(),
        0,
        "{what}: optimize() fired {} on an optimized plan",
        report.summary()
    );
    let shared = optimized.inputs().count() == again.inputs().count()
        && optimized
            .inputs()
            .zip(again.inputs())
            .all(|(a, b)| PlanRef::ptr_eq(a, b));
    assert!(
        shared,
        "{what}: optimize() rebuilt the children of an optimized plan"
    );
    [optimize_allocs, prepare_allocs, quiet_allocs]
}

fn assert_shares_names(db: &Database) {
    let interned = Name::interned();
    let catalog = db.table_schema("r1").expect("r1 exists");
    let scan = PlanBuilder::scan(db, "r1").expect("r1 exists").build();
    let scanned = scan.schema();
    for (ours, theirs) in scanned.attributes().iter().zip(catalog.attributes()) {
        assert_eq!(ours.name, theirs.name, "a scan renamed a catalog column");
    }
    let qualifier = scanned.attr(0).qualifier.expect("qualified");
    assert_eq!(&*qualifier, "r1");
    for attr in scanned.attributes() {
        assert_eq!(
            attr.qualifier,
            Some(qualifier),
            "with_qualifier gave `{}` a qualifier of its own",
            attr.name
        );
    }
    let other = db.table_schema("r2").expect("r2 exists");
    let both = catalog.concat(other);
    let sources = catalog.attributes().iter().chain(other.attributes());
    for (ours, theirs) in both.attributes().iter().zip(sources) {
        assert_eq!(ours, theirs, "concat changed an attribute");
    }
    assert_eq!(both.arity(), catalog.arity() + other.arity());
    assert_eq!(
        Name::interned(),
        interned,
        "a scan, with_qualifier or concat interned a name"
    );
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

    // Bounds on (optimize, prepare, optimize again): the `one chain` column
    // of the module docs plus less than 5 %.
    let cases: [(&str, &Database, &Plan, [usize; 3]); 2] = [
        (
            "synth_corr EXISTS under Gen",
            &synth,
            &exists,
            [339, 117, 6],
        ),
        ("TPC-H Q17 under Auto", &tpch, &q17, [1_528, 348, 14]),
    ];
    for (what, db, plan, bounds) in cases {
        let counts = prepare_allocations(what, db, plan);
        eprintln!(
            "{what}: optimize {} allocations, prepare {}, optimize again {}",
            counts[0], counts[1], counts[2]
        );
        let steps = ["optimize()", "Executor::prepare()", "a second optimize()"];
        for ((step, count), bound) in steps.into_iter().zip(counts).zip(bounds) {
            assert!(
                count <= bound,
                "{what}: {step} made {count} allocations, more than {bound}"
            );
        }
    }
}
