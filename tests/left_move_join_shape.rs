//! The north-star regression for the uncorrelated strategies: `q1`
//! (`a = ANY`) and `q2` (`a < ALL`) at 4000×1000 under `Strategy::Left`,
//! `Strategy::Move` and `Strategy::Auto` must run the `⟕_{Jsub}` the
//! rewrites emit as what it is once `Csub` holds — an equi-join for `ANY`,
//! a pad-or-cross for `ALL` — with the sublink, which is uncorrelated,
//! fetched once per batch and answered per outer row by one probe, never
//! per joined pair and never through the per-tuple fallback. Asserted on
//! counts (join output rows, sublink-fallback rows, plan shape), never on
//! wall time.

use perm::prelude::*;
use perm::{ProfileNode, SessionConfig};
use perm_algebra::{Expr, JoinKind, Plan};
use perm_synthetic::queries::{query_q1, query_q2, RangeParams};

const R1_ROWS: usize = 4000;
const R2_ROWS: usize = 1000;

/// A database on which `r1.a = r2.a` has real matches.
fn matching_database() -> Database {
    perm_synthetic::build_matching_database(R1_ROWS, R2_ROWS, 42)
}

/// The middle quarter of `table.b`, by quantile.
fn middle_quarter(db: &Database, table: &str) -> (i64, i64) {
    let mut b: Vec<i64> = db
        .table(table)
        .unwrap()
        .tuples()
        .iter()
        .map(|t| t.get(1).as_i64().unwrap())
        .collect();
    b.sort_unstable();
    (b[b.len() * 3 / 8], b[b.len() * 5 / 8])
}

fn windows(db: &Database) -> RangeParams {
    let (r1_low, r1_high) = middle_quarter(db, "r1");
    let (r2_low, r2_high) = middle_quarter(db, "r2");
    RangeParams {
        r1_low,
        r1_high,
        r2_low,
        r2_high,
    }
}

fn rows_in_window(db: &Database, table: &str, (low, high): (i64, i64)) -> u64 {
    db.table(table)
        .unwrap()
        .tuples()
        .iter()
        .filter(|t| (low..=high).contains(&t.get(1).as_i64().unwrap()))
        .count() as u64
}

fn session(db: &Database, strategy: Strategy) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            strategy,
            ..SessionConfig::default()
        },
    )
}

fn joins<'p>(plan: &'p Plan, out: &mut Vec<(&'p JoinKind, &'p Expr)>) {
    if let Plan::Join {
        kind, condition, ..
    } = plan
    {
        out.push((kind, condition));
    }
    for child in plan.children() {
        joins(child, out);
    }
}

fn profiled_joins<'p>(node: &'p ProfileNode, out: &mut Vec<&'p ProfileNode>) {
    if node.operator == "join" {
        out.push(node);
    }
    for child in &node.children {
        profiled_joins(child, out);
    }
}

/// Runs `plan` under `strategy` and checks the shape and the counts;
/// returns the witness relation.
fn assert_join_shaped(db: &Database, plan: &Plan, strategy: Strategy, hash: bool) -> Relation {
    let params = windows(db);
    let outer_rows = rows_in_window(db, "r1", (params.r1_low, params.r1_high));
    let sublink_rows = rows_in_window(db, "r2", (params.r2_low, params.r2_high));
    let label = format!("{strategy}");

    let session = session(db, strategy);
    let prepared = session.prepare_provenance_plan(plan).unwrap();
    let report = prepared.optimizer_report();
    assert!(
        report.preserved_side_pushed >= 1,
        "{label}: {}",
        report.summary()
    );

    // No join condition still holds the sublink, or the value Move
    // projects it to.
    let mut conditions = Vec::new();
    joins(prepared.plan(), &mut conditions);
    assert!(!conditions.is_empty(), "{label}: the ⟕ is gone");
    for (kind, condition) in conditions {
        assert_eq!(*kind, JoinKind::LeftOuter, "{label}");
        assert!(!condition.has_sublink(), "{label}: {condition}");
        assert!(
            condition
                .column_refs()
                .iter()
                .all(|(_, name)| !name.starts_with("sublink_val")),
            "{label}: {condition}"
        );
    }

    let fallback_before = session.executor().batch_fallback_rows();
    let (witnesses, profile) = session.execute_profiled(&prepared, &[]).unwrap();
    let fallback = session.executor().batch_fallback_rows() - fallback_before;
    assert!(
        !witnesses.is_empty(),
        "{label}: the query must have results"
    );

    // The join emits the witnesses, not the |σ(r1)| × |σ(r2)| pairs the
    // selection above it used to throw away.
    let mut nodes = Vec::new();
    profiled_joins(&profile.root, &mut nodes);
    assert_eq!(nodes.len(), 1, "{label}");
    let join = nodes[0];
    assert_eq!(join.rows_out, witnesses.len() as u64, "{label}");
    assert!(
        join.rows_out < outer_rows * sublink_rows / 10,
        "{label}: {} rows out of the join",
        join.rows_out
    );
    if hash {
        assert_eq!(join.detail, "LeftOuter hash", "{label}");
    }

    // The uncorrelated sublink is looked up once per batch: no outer row
    // is looked up on its own.
    assert_eq!(
        fallback, 0,
        "{label}: {fallback} sublink-fallback rows for {outer_rows} outer rows"
    );

    let reference = Executor::new(db)
        .execute_unoptimized(prepared.bound_plan())
        .unwrap();
    assert!(
        witnesses.bag_eq(&reference),
        "{label}: {} witness rows vs {} in the reference",
        witnesses.len(),
        reference.len()
    );
    witnesses
}

#[test]
fn q1_left_and_move_run_the_jsub_join_as_a_hash_join() {
    let db = matching_database();
    let q1 = query_q1(&db, windows(&db));
    let unn_session = session(&db, Strategy::Unn);
    let unn = unn_session
        .execute(&unn_session.prepare_provenance_plan(&q1).unwrap(), &[])
        .unwrap();
    for strategy in [Strategy::Left, Strategy::Move] {
        let witnesses = assert_join_shaped(&db, &q1, strategy, true);
        assert!(
            witnesses.bag_eq(&unn),
            "{strategy}: {} witness rows vs {} under Unn",
            witnesses.len(),
            unn.len()
        );
    }
}

#[test]
fn q2_left_move_and_auto_pad_or_cross_without_a_per_pair_sublink() {
    let db = matching_database();
    let q2 = query_q2(&db, windows(&db));
    for strategy in [Strategy::Left, Strategy::Move, Strategy::Auto] {
        assert_join_shaped(&db, &q2, strategy, false);
    }
}
