//! Counter parity for plans over stored tables.
//!
//! A scan reads the catalog's rows in place and an operator copies only the
//! rows it keeps, but what the engine counts must not notice: every number
//! below was recorded when `physical::scan` still copied the whole stored
//! table into a relation of its own (`cancel_checks`: when `execute` still
//! materialised each operator's result instead of draining one pull
//! pipeline), and is pinned here for six plan shapes directly over scans,
//! on the compiled path (with an `EXPLAIN ANALYZE` profile) and on the
//! reference interpreter:
//!
//! * `operators_evaluated` and `vectorized_batches`;
//! * `cancel_checks`, the cancellation checkpoints polled: the benchmark's
//!   `tpch_fig6` workload picks the instantiation of each TPC-H template it
//!   runs by this count (the cheapest of eight), so a change that moves it
//!   changes which queries that workload measures;
//! * per profile node, `invocations`, `batches`, `rows_in` and `rows_out`;
//! * the number of `FaultSite::Operator` events;
//! * a `FaultKind::Cancel` at a scan's operator ordinal still cancels there
//!   (and `FaultKind::Exhaust` at that ordinal names the scan).

use perm::{Database, ExecError, Executor, FaultKind, FaultPlan, FaultSite, ProfileNode};
use perm_algebra::builder::{between, count_star, exists_sublink, lit, qcol, sum};
use perm_algebra::{Plan, PlanBuilder, ProjectItem, SortKey};

/// `(operator, invocations, batches, rows_in, rows_out)` of one profile
/// node.
type NodeCounts = (String, u64, u64, u64, u64);

/// What one shape pins: compiled `(operators_evaluated, vectorized_batches)`
/// and `cancel_checks`, the profile nodes in pre-order (children, then
/// sublinks), the interpreter's `(operators_evaluated, vectorized_batches)`,
/// the operator events of one execution, and the 1-based ordinals of its
/// scans.
struct Pinned {
    compiled: (u64, u64),
    cancel_checks: u64,
    nodes: &'static [(&'static str, u64, u64, u64, u64)],
    interpreted: (u64, u64),
    operator_events: u64,
    scan_ordinals: &'static [u64],
}

fn database() -> Database {
    perm_synthetic::build_database(2_500, 300, 42)
}

fn scan(db: &Database, table: &str) -> PlanBuilder {
    PlanBuilder::scan(db, table).expect("the synthetic tables exist")
}

fn shapes(db: &Database) -> Vec<(&'static str, Plan)> {
    let r2 = || scan(db, "r2").build();
    vec![
        (
            "select(scan)",
            scan(db, "r1")
                .select(between(qcol("r1", "b"), lit(-50_000), lit(50_000)))
                .build(),
        ),
        (
            "join(scan, scan)",
            scan(db, "r1")
                .join(
                    r2(),
                    perm_algebra::builder::eq(qcol("r1", "g"), qcol("r2", "g")),
                )
                .build(),
        ),
        (
            "aggregate(scan)",
            scan(db, "r1")
                .aggregate(
                    vec![ProjectItem::new(qcol("r1", "g"), "g")],
                    vec![count_star("n"), sum(qcol("r1", "b"), "s")],
                )
                .build(),
        ),
        (
            "sort(scan)",
            scan(db, "r1")
                .sort(vec![SortKey::desc(qcol("r1", "b"))])
                .build(),
        ),
        (
            "column-map project(scan)",
            scan(db, "r1").project_columns(&["g", "a"]).build(),
        ),
        (
            "exists(scan)",
            scan(db, "r1").select(exists_sublink(r2())).build(),
        ),
    ]
}

fn flatten(node: &ProfileNode, out: &mut Vec<NodeCounts>) {
    out.push((
        node.operator.clone(),
        node.invocations,
        node.batches,
        node.rows_in,
        node.rows_out,
    ));
    for child in node.children.iter().chain(&node.sublinks) {
        flatten(child, out);
    }
}

/// Operator events of one compiled execution under `fault`, and its error.
fn run_with_fault(db: &Database, plan: &Plan, fault: &FaultPlan) -> Result<usize, ExecError> {
    let ex = Executor::new(db).with_fault_plan(fault.clone());
    let compiled = ex.prepare(plan).expect("compiles");
    ex.execute_compiled(&compiled).map(|r| r.len())
}

#[test]
fn scans_count_what_they_counted_when_they_copied() {
    let db = database();
    let pinned: [Pinned; 6] = [
        Pinned {
            compiled: (2, 3),
            cancel_checks: 4,
            nodes: &[("select", 1, 3, 2500, 373), ("scan", 1, 1, 0, 2500)],
            interpreted: (2, 0),
            operator_events: 2,
            scan_ordinals: &[1],
        },
        Pinned {
            compiled: (3, 4),
            cancel_checks: 29,
            nodes: &[
                ("join", 1, 27, 2800, 23689),
                ("scan", 1, 1, 0, 2500),
                ("scan", 1, 1, 0, 300),
            ],
            interpreted: (3, 0),
            operator_events: 3,
            scan_ordinals: &[1, 2],
        },
        Pinned {
            compiled: (2, 6),
            cancel_checks: 4,
            nodes: &[("aggregate", 1, 3, 2500, 32), ("scan", 1, 1, 0, 2500)],
            interpreted: (2, 0),
            operator_events: 2,
            scan_ordinals: &[1],
        },
        Pinned {
            compiled: (2, 3),
            cancel_checks: 4,
            nodes: &[("sort", 1, 3, 2500, 2500), ("scan", 1, 1, 0, 2500)],
            interpreted: (2, 0),
            operator_events: 2,
            scan_ordinals: &[1],
        },
        Pinned {
            compiled: (2, 0),
            cancel_checks: 4,
            nodes: &[("project", 1, 3, 2500, 2500), ("scan", 1, 1, 0, 2500)],
            interpreted: (2, 0),
            operator_events: 2,
            scan_ordinals: &[1],
        },
        Pinned {
            compiled: (3, 3),
            cancel_checks: 8,
            nodes: &[
                ("select", 1, 3, 2500, 2500),
                ("scan", 1, 1, 0, 2500),
                ("scan", 1, 1, 0, 300),
            ],
            interpreted: (3, 0),
            operator_events: 3,
            scan_ordinals: &[1, 3],
        },
    ];
    for ((what, plan), want) in shapes(&db).into_iter().zip(&pinned) {
        let ex = Executor::new(&db);
        let compiled = ex.prepare(&plan).expect("compiles");
        let (_, profile) = ex.execute_profiled(&compiled).expect("executes");
        let stats = ex.stats();
        let mut nodes = Vec::new();
        flatten(&profile.root, &mut nodes);

        let reference = Executor::new(&db);
        reference.execute_unoptimized(&plan).expect("interprets");
        let rstats = reference.stats();

        let counting = FaultPlan::new(FaultKind::Cancel, FaultSite::Operator, u64::MAX);
        run_with_fault(&db, &plan, &counting).expect("never fires");

        let pinned_nodes: Vec<NodeCounts> = want
            .nodes
            .iter()
            .map(|&(op, inv, batches, rows_in, rows_out)| {
                (op.to_string(), inv, batches, rows_in, rows_out)
            })
            .collect();
        assert_eq!(nodes, pinned_nodes, "{what}: profile nodes");
        assert_eq!(
            (stats.operators_evaluated, stats.vectorized_batches),
            want.compiled,
            "{what}: compiled counters"
        );
        assert_eq!(
            stats.cancel_checks, want.cancel_checks,
            "{what}: cancellation checkpoints"
        );
        assert_eq!(
            (rstats.operators_evaluated, rstats.vectorized_batches),
            want.interpreted,
            "{what}: interpreter counters"
        );
        assert_eq!(
            counting.events_seen(),
            want.operator_events,
            "{what}: operator events"
        );
        for &n in want.scan_ordinals {
            let exhaust = FaultPlan::new(FaultKind::Exhaust, FaultSite::Operator, n);
            match run_with_fault(&db, &plan, &exhaust) {
                Err(ExecError::ResourceExhausted { operator }) => {
                    assert_eq!(operator, "scan", "{what}: operator event {n}")
                }
                other => panic!("{what}: an exhaustion at event {n} gave {other:?}"),
            }
            let cancel = FaultPlan::new(FaultKind::Cancel, FaultSite::Operator, n);
            let result = run_with_fault(&db, &plan, &cancel);
            assert!(
                matches!(result, Err(ExecError::Cancelled { .. })),
                "{what}: a cancellation at the scan's event {n} gave {result:?}"
            );
            assert_eq!(
                cancel.events_seen(),
                n,
                "{what}: the execution went on past the cancelled scan"
            );
        }
    }
}
