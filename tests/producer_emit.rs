//! A row is built once, by the operator that makes it: a pass-through `Π`
//! directly over a selection or a sort hands its column map down, so the σ
//! builds each survivor — the sort each row, in sorted order — through the
//! map, and the `Π` finds its rows made, as over a join. None of it may be
//! visible: for identity, permuted, duplicated and subset maps, over stored
//! (borrowed) and built inputs, columnar on and off, the rows — as *lists* —
//! and the first error equal the reference interpreter's, a failing batch
//! still hands on its survivors before the error, a spilled sort equals its
//! resident twin, and the `Π`'s profile node keeps its rows and batches and
//! names the operator that wrote them.

use perm::prelude::*;
use perm_algebra::builder::{binary, cmp};
use perm_algebra::{BinaryOp, CompareOp, Expr, Plan, ProjectItem, SortKey};
use perm_exec::{CompiledNode, ExecError, BATCH_ROWS};

/// The rows of the main table: three batches, the failing row in the middle
/// one.
const ROWS: i64 = 2_600;

/// The row whose `b - k` is zero.
const ZERO_AT: i64 = 1_500;

/// `t(id, k, b, s)`: `k` a key of 13 values (many sort ties), `b - k` never
/// zero except at row `zero_at`, `s` a string payload.
fn table(rows: i64, zero_at: Option<i64>) -> Relation {
    Relation::from_rows(
        Schema::from_names(&["id", "k", "b", "s"]).with_qualifier("t"),
        (0..rows)
            .map(|i| {
                let k = i % 13;
                let d = (i * 7) % 22 - 11;
                let d = match d >= 0 {
                    true => d + 1,
                    false => d,
                };
                let b = if Some(i) == zero_at { k } else { k + d };
                vec![
                    Value::Int(i),
                    Value::Int(k),
                    Value::Int(b),
                    Value::Str(format!("row {i} of t").into()),
                ]
            })
            .collect(),
    )
}

fn database(rows: i64, zero_at: Option<i64>) -> Database {
    let mut db = Database::new();
    db.create_table("t", table(rows, zero_at)).unwrap();
    db
}

fn scan(db: &Database) -> PlanBuilder {
    PlanBuilder::scan(db, "t").unwrap()
}

/// `10 / (b - k) > 0`: fails on the row where `b = k`.
fn dividing() -> Expr {
    let quotient = binary(
        BinaryOp::Div,
        lit(10),
        binary(BinaryOp::Sub, qcol("t", "b"), qcol("t", "k")),
    );
    cmp(CompareOp::Gt, quotient, lit(0))
}

/// The operator's input: the stored rows (borrowed by the scan), or rows an
/// operator built (a σ that keeps them all).
fn input(db: &Database, built: bool) -> PlanBuilder {
    match built {
        true => scan(db).select(cmp(CompareOp::Ge, qcol("t", "id"), lit(0))),
        false => scan(db),
    }
}

/// The four column maps over `t`: identity, permuted, a column twice,
/// subset.
fn column_maps() -> [(&'static str, Vec<usize>); 4] {
    [
        ("identity", vec![0, 1, 2, 3]),
        ("permuted", vec![3, 2, 0, 1]),
        ("duplicated", vec![1, 1, 3, 1]),
        ("subset", vec![2]),
    ]
}

/// A non-distinct projection of `input` onto the given positions of its
/// schema, under fresh names (a position may repeat).
fn project(input: Plan, positions: &[usize]) -> Plan {
    let schema = input.schema();
    let items = positions
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let mut item = ProjectItem::passthrough(schema.attr(i));
            item.alias = format!("c{k}").into();
            item
        })
        .collect();
    PlanBuilder::from_plan(input).project(items).build()
}

/// The σ and the sort each `Π` is put over, with the operator name its
/// profile should carry.
fn producers(db: &Database, built: bool) -> [(&'static str, Plan); 2] {
    [
        (
            "select",
            input(db, built)
                .select(cmp(CompareOp::Lt, qcol("t", "k"), lit(9)))
                .build(),
        ),
        (
            "sort",
            input(db, built)
                .sort(vec![SortKey::asc(qcol("t", "k"))])
                .build(),
        ),
    ]
}

/// Runs `plan` compiled (columnar on or off) and through the reference
/// interpreter: the same rows in the same order, or the same error. Returns
/// the compiled result.
fn assert_matches_reference(
    db: &Database,
    label: &str,
    plan: &Plan,
    columnar: bool,
) -> Result<Relation, ExecError> {
    let want = Executor::new(db).execute_unoptimized(plan);
    let ex = Executor::new(db).with_columnar(columnar);
    let got = ex.execute_compiled(&ex.prepare(plan).unwrap());
    match (&got, &want) {
        (Ok(got), Ok(want)) => assert!(got.tuples() == want.tuples(), "{label}: rows differ"),
        (got, want) => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{label}"),
    }
    got
}

#[test]
fn a_projection_emitted_by_its_selection_or_sort_yields_the_reference_rows() {
    let db = database(ROWS, None);
    for built in [false, true] {
        for (op, producer) in producers(&db, built) {
            for (map, positions) in column_maps() {
                let plan = project(producer.clone(), &positions);
                let label = format!("Π_{map} over {op}, built input {built}");
                for columnar in [true, false] {
                    let rows = assert_matches_reference(&db, &label, &plan, columnar).unwrap();
                    assert!(!rows.is_empty(), "{label}: the case must have rows");
                }

                // The Π stays in the tree with its invocation, rows and
                // batches; its detail names the operator that wrote them.
                let reference = Executor::new(&db);
                reference.execute_unoptimized(&plan).unwrap();
                let ex = Executor::new(&db);
                let compiled = ex.prepare(&plan).unwrap();
                let CompiledNode::Project { column_map, .. } = compiled.root() else {
                    panic!("{label}: not a projection");
                };
                assert!(column_map.is_some(), "{label}: a pass-through Π");
                let (got, profile) = ex.execute_profiled(&compiled).unwrap();
                let pi = &profile.root;
                let rows = got.len() as u64;
                assert_eq!((pi.rows_in, pi.rows_out), (rows, rows), "{label}");
                assert_eq!(pi.children[0].rows_out, rows, "{label}");
                assert_eq!(pi.batches, rows.div_ceil(BATCH_ROWS as u64), "{label}");
                assert!(
                    pi.detail.ends_with(&format!("(emitted by {op})")),
                    "{label}: {}",
                    pi.detail
                );
                assert_eq!(
                    ex.operators_evaluated(),
                    reference.operators_evaluated(),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn a_selection_failing_in_a_middle_batch_hands_on_its_survivors_then_the_error() {
    let failing = database(ROWS, Some(ZERO_AT));
    let healed = database(ROWS, None);
    for built in [false, true] {
        for (map, positions) in column_maps() {
            let label = format!("Π_{map} over a failing σ, built input {built}");
            let plan = |db| project(input(db, built).select(dividing()).build(), &positions);
            let (plan, healed_plan) = (plan(&failing), plan(&healed));

            // The survivors before the failing row: a prefix of the healed
            // table's answer, as long as its survivors with a smaller id.
            let reference = Executor::new(&healed);
            let healed_rows = reference.execute_unoptimized(&healed_plan).unwrap();
            let before = scan(&healed)
                .select(cmp(CompareOp::Lt, qcol("t", "id"), lit(ZERO_AT)))
                .select(dividing())
                .build();
            let prefix = reference.execute_unoptimized(&before).unwrap().len();
            assert!(prefix > 0, "{label}: survivors precede the error");
            let want_rows = &healed_rows.tuples()[..prefix];
            let want_error = Executor::new(&failing)
                .execute_unoptimized(&plan)
                .unwrap_err();

            for columnar in [true, false] {
                let label = format!("{label}, columnar {columnar}");
                let got = assert_matches_reference(&failing, &label, &plan, columnar);
                assert_eq!(got.unwrap_err(), want_error, "{label}");

                let ex = Executor::new(&failing).with_columnar(columnar);
                let compiled = ex.prepare(&plan).unwrap();
                let mut rows = Vec::new();
                let mut error = None;
                for row in ex.open(&compiled).unwrap() {
                    match row {
                        Ok(row) => rows.push(row),
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                assert!(rows == want_rows, "{label}: survivors differ");
                assert_eq!(error, Some(want_error.clone()), "{label}");
            }
        }
    }

    // A sort whose key fails returns the reference's error and no row.
    for built in [false, true] {
        for (map, positions) in column_maps() {
            let key = binary(
                BinaryOp::Div,
                lit(10),
                binary(BinaryOp::Sub, qcol("t", "b"), qcol("t", "k")),
            );
            let sorted = input(&failing, built).sort(vec![SortKey::desc(key)]);
            let plan = project(sorted.build(), &positions);
            for columnar in [true, false] {
                let label = format!("Π_{map} over a failing sort, built {built}, {columnar}");
                let got = assert_matches_reference(&failing, &label, &plan, columnar);
                assert!(got.is_err(), "{label}");
            }
        }
    }
}

#[test]
fn a_cursor_under_a_limit_streams_the_reference_prefix() {
    let db = database(ROWS, None);
    for columnar in [true, false] {
        let session = Session::with_config(
            &db,
            SessionConfig {
                columnar,
                ..SessionConfig::default()
            },
        );
        for built in [false, true] {
            for (op, producer) in producers(&db, built) {
                for (map, positions) in column_maps() {
                    for k in [0, 1, 7, BATCH_ROWS + 3] {
                        let label = format!("LIMIT {k} over Π_{map} over {op}, built {built}");
                        let plan = PlanBuilder::from_plan(project(producer.clone(), &positions))
                            .limit(k)
                            .build();
                        let want = Executor::new(&db).execute_unoptimized(&plan).unwrap();
                        let prepared = session.prepare_plan(&plan).unwrap();
                        let got: Vec<Tuple> = session
                            .rows(&prepared, &[])
                            .unwrap()
                            .collect::<Result<_, _>>()
                            .unwrap();
                        assert!(got == want.tuples(), "{label}, columnar {columnar}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_spilled_sort_emits_through_the_map_as_its_resident_twin() {
    let db = database(20_000, None);
    for built in [false, true] {
        let sorted = input(&db, built)
            .sort(vec![SortKey::desc(qcol("t", "k"))])
            .build();
        for (map, positions) in column_maps() {
            let label = format!("Π_{map} over a spilled sort, built input {built}");
            let plan = project(sorted.clone(), &positions);
            let resident = Executor::new(&db);
            let resident = resident
                .execute_compiled(&resident.prepare(&plan).unwrap())
                .unwrap();
            let want = Executor::new(&db).execute_unoptimized(&plan).unwrap();
            assert!(resident.tuples() == want.tuples(), "{label}: resident");

            let ex = Executor::new(&db)
                .with_memory_budget(Some(256 << 10))
                .with_spill(true);
            let compiled = ex.prepare(&plan).unwrap();
            let (spilled, profile) = ex.execute_profiled(&compiled).unwrap();
            assert!(ex.spill_partitions() > 0, "{label}: the sort must spill");
            assert!(
                spilled.tuples() == resident.tuples(),
                "{label}: rows differ"
            );
            assert!(
                profile.root.detail.ends_with("(emitted by sort)"),
                "{label}"
            );
        }
    }
}
