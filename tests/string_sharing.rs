//! Strings are shared, not copied: a `Value::Str` is an `Arc<str>`, and a
//! `ColumnVec::Str` lane holds the same `Arc`s, so every copy of a string
//! cell on its way from the stored table to a result row — the scan's
//! batch, the join's emitted row, the projection, the witness columns of
//! `SELECT PROVENANCE` — bumps a reference count instead of copying bytes.
//!
//! Two checks:
//!
//! * **identity** — every string cell of a provenance result whose plan
//!   runs scan → hash join → Π is `Arc::ptr_eq` to a cell of the stored
//!   tables;
//! * **allocations** — a hash join over a table with three string columns
//!   allocates no more per output row than the same join over `Int`
//!   columns. The gate counts heap allocations (`alloc`, `alloc_zeroed`
//!   and `realloc`) of one execution of a prepared plan:
//!
//! | `l ⋈_{l.k = r.k} r`, 4 000 ⋈ 4 000 rows | output rows | `Int` columns | `Str` columns, shared | `Str` columns, copied |
//! |-----------------------------------------|------------:|--------------:|----------------------:|----------------------:|
//! | allocations                             |       4 000 |         6 134 |                 6 134 |                18 134 |
//!
//! (`copied`: when `Value::Str` held a `String`, each of the three string
//! cells of an output row was one more allocation. Release build.)
//!
//! The two tests take [`SERIAL`] so that nothing else allocates while a
//! count runs.

use perm::prelude::*;
use perm_algebra::builder::eq;
use perm_algebra::Plan;
use perm_exec::CompiledNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// Held by each test for its whole run.
static SERIAL: Mutex<()> = Mutex::new(());

/// C(k, name, comment) and O(ck, clerk, note): customers and the orders
/// that name them, strings in every non-key column.
fn customers_and_orders() -> Database {
    let mut db = Database::new();
    db.create_table(
        "c",
        Relation::from_rows(
            Schema::from_names(&["k", "name", "comment"]).with_qualifier("c"),
            (0..40)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("Customer#{i:09}")),
                        Value::str(format!("comment of customer {i}")),
                    ]
                })
                .collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "o",
        Relation::from_rows(
            Schema::from_names(&["ck", "clerk", "note"]).with_qualifier("o"),
            (0..60)
                .map(|i| {
                    vec![
                        Value::Int(i % 30),
                        Value::str(format!("Clerk#{:05}", i % 7)),
                        Value::str(format!("order note {i}")),
                    ]
                })
                .collect(),
        ),
    )
    .unwrap();
    db
}

/// The address of a string cell's bytes.
fn cell(v: &Value) -> Option<*const u8> {
    match v {
        Value::Str(s) => Some(Arc::as_ptr(s) as *const u8),
        _ => None,
    }
}

/// Whether a compiled plan runs a hash join (a join with equi keys).
fn has_hash_join(node: &CompiledNode) -> bool {
    match node {
        CompiledNode::Join {
            equi_keys,
            left,
            right,
            ..
        } => !equi_keys.is_empty() || has_hash_join(left) || has_hash_join(right),
        CompiledNode::Project { input, .. }
        | CompiledNode::Select { input, .. }
        | CompiledNode::Aggregate { input, .. }
        | CompiledNode::Sort { input, .. }
        | CompiledNode::Limit { input, .. } => has_hash_join(input),
        CompiledNode::CrossProduct { left, right, .. }
        | CompiledNode::SetOp { left, right, .. } => has_hash_join(left) || has_hash_join(right),
        CompiledNode::Scan { .. } | CompiledNode::Values { .. } => false,
    }
}

#[test]
fn provenance_witness_strings_are_the_stored_cells() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(customers_and_orders());
    let db = engine.database();
    let stored: HashSet<*const u8> = ["c", "o"]
        .into_iter()
        .flat_map(|t| db.table(t).unwrap().tuples())
        .flat_map(|row| row.values().iter().filter_map(cell))
        .collect();
    assert_eq!(
        stored.len(),
        40 * 2 + 60 * 2,
        "every stored string is its own cell"
    );

    let session = engine.session();
    for sql in [
        // A plain join: fused into a hash join, Π on top.
        "SELECT PROVENANCE c.name, o.clerk FROM c, o WHERE c.k = o.ck",
        // A sublink whose rewrite is join-shaped.
        "SELECT PROVENANCE name FROM c WHERE k IN (SELECT ck FROM o)",
    ] {
        let prepared = session.prepare_provenance(sql).unwrap();
        let compiled = Executor::new(db).prepare(prepared.plan()).unwrap();
        assert!(has_hash_join(compiled.root()), "{sql}: a hash join");
        let result = session.execute(&prepared, &[]).unwrap();
        assert_eq!(result.len(), 60, "{sql}: one row per order");
        let names = result.schema().names();
        let mut witnessed = HashSet::new();
        for row in result.tuples() {
            for (name, value) in names.iter().zip(row.values()) {
                let Some(at) = cell(value) else { continue };
                assert!(
                    stored.contains(&at),
                    "{sql}: `{name}` = {value} is a copy, not the stored cell"
                );
                if name.starts_with("prov_") {
                    witnessed.insert(name.to_string());
                }
            }
        }
        for column in [
            "prov_c_name",
            "prov_c_comment",
            "prov_o_clerk",
            "prov_o_note",
        ] {
            assert!(witnessed.contains(column), "{sql}: no witness in {column}");
        }
    }
}

/// L(k, a, b, c) ⋈_{l.k = r.k} R(k, x) over `n` rows each, every `l.k`
/// matching one `r.k`; `a`, `b` and `c` hold strings or integers.
fn join_case(n: i64, strings: bool) -> (Database, Plan) {
    let payload = |i: i64, col: &str| match strings {
        true => Value::str(format!("{col}-payload-{i:06}")),
        false => Value::Int(i),
    };
    let mut db = Database::new();
    db.create_table(
        "l",
        Relation::from_rows(
            Schema::from_names(&["k", "a", "b", "c"]).with_qualifier("l"),
            (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        payload(i, "a"),
                        payload(i, "b"),
                        payload(i, "c"),
                    ]
                })
                .collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::from_names(&["k", "x"]).with_qualifier("r"),
            (0..n)
                .map(|i| vec![Value::Int(n - 1 - i), Value::Int(i)])
                .collect(),
        ),
    )
    .unwrap();
    let plan = PlanBuilder::scan(&db, "l")
        .unwrap()
        .join(
            PlanBuilder::scan(&db, "r").unwrap().build(),
            eq(qcol("l", "k"), qcol("r", "k")),
        )
        .build();
    (db, plan)
}

/// Output rows and allocations of one execution of `plan`, prepared and
/// executed once before the count.
fn execution_allocations(db: &Database, plan: &Plan) -> (usize, usize) {
    let ex = Executor::new(db);
    let compiled = ex.prepare(plan).expect("compiles");
    assert!(has_hash_join(compiled.root()));
    ex.execute_compiled(&compiled).expect("executes");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = ex.execute_compiled(&compiled).expect("executes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (result.len(), allocations)
}

#[test]
fn a_join_over_string_columns_allocates_like_one_over_integers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const N: i64 = 4_000;
    let (int_db, int_plan) = join_case(N, false);
    let (str_db, str_plan) = join_case(N, true);
    let (int_rows, int_allocations) = execution_allocations(&int_db, &int_plan);
    let (str_rows, str_allocations) = execution_allocations(&str_db, &str_plan);
    eprintln!(
        "l ⋈ r: Int columns {int_rows} rows, {int_allocations} allocations; \
         Str columns {str_rows} rows, {str_allocations} allocations"
    );
    assert_eq!(int_rows, N as usize);
    assert_eq!(str_rows, N as usize);
    assert!(
        str_allocations <= int_allocations,
        "{str_allocations} allocations with string columns, {int_allocations} with integer \
         ones, for {str_rows} output rows: is a string cell copied again?"
    );
}
