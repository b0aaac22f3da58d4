//! A witness row is built once: a pass-through `Π` directly over a join is
//! emitted *by* the join, through the `Π`'s column map, and a hash join
//! whose equi keys are its whole condition takes its bucket-mates for the
//! matches without building a candidate row or calling the condition.
//! Neither may be visible: every combination of join kind, condition shape
//! and column map is compared row by row — as a *list* — against the
//! reference interpreter (which passes the identity map and always
//! rechecks), resident and on the grace path, with the operator counts and
//! the profile's row counts beside it; the shapes the compiled driver must
//! not fuse are asserted to decline; and the premise of the skipped recheck
//! — key equality is exactly the comparison — is checked on random values.

use perm::prelude::*;
use perm_algebra::builder::{and, binary, cmp, eq, exists_sublink, null_safe_eq};
use perm_algebra::{compare, BinaryOp, CompareOp, Expr, JoinKind, Plan, ProjectItem, SetOpKind};
use perm_exec::{
    CompiledExpr, CompiledNode, ExecError, FaultKind, FaultPlan, FaultSite, BATCH_ROWS,
};
use perm_storage::{encode_key_column_filtered, ColumnVec, Truth};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const KINDS: [JoinKind; 4] = [
    JoinKind::Inner,
    JoinKind::LeftOuter,
    JoinKind::Semi,
    JoinKind::Anti,
];

/// A key that is an integer `v` in one of its four spellings, or a value no
/// integer equals.
fn cross_type(v: i64, spelling: i64) -> Value {
    match spelling % 5 {
        0 => Value::Int(v),
        1 => Value::Float(v as f64),
        2 => Value::Date(v as i32),
        3 if v < 2 => Value::Bool(v == 1),
        3 => Value::Float(-(v as f64)),
        _ => Value::Float(v as f64 + 0.5),
    }
}

/// `name(id, k, kn, kx, m, s)` with `rows` rows: `k` an integer key over
/// `keys` values, `kn` the same with every `null_every`-th row NULL, `kx`
/// the same in mixed spellings (the column is a `Values` lane), `m` for
/// residual conjuncts, `s` a string payload.
fn table(name: &str, rows: i64, keys: i64, stride: i64, null_every: i64) -> Relation {
    Relation::from_rows(
        Schema::from_names(&["id", "k", "kn", "kx", "m", "s"]).with_qualifier(name),
        (0..rows)
            .map(|i| {
                let key = (i * stride) % keys;
                vec![
                    Value::Int(i),
                    Value::Int(key),
                    if i % null_every == 0 {
                        Value::Null
                    } else {
                        Value::Int(key)
                    },
                    cross_type(key, i + stride),
                    Value::Int(i % 7),
                    Value::Str(format!("{name}{i}").into()),
                ]
            })
            .collect(),
    )
}

fn database(l_rows: i64, r_rows: i64, keys: i64) -> Database {
    let mut db = Database::new();
    // Few NULLs on the build side: under `=n` they are one bucket, and a
    // grace partition must fit the budget.
    db.create_table("l", table("l", l_rows, keys, 3, 5))
        .unwrap();
    db.create_table("r", table("r", r_rows, keys, 1, 97))
        .unwrap();
    db
}

fn key(column: &str) -> (Expr, Expr) {
    (qcol("l", column), qcol("r", column))
}

/// The six condition shapes: name, condition, and whether a hash join runs
/// it (and so whether a budget can push it onto the grace path).
fn conditions() -> Vec<(&'static str, Expr, bool)> {
    let lt = |(a, b)| cmp(CompareOp::Lt, a, b);
    vec![
        (
            "keys are the whole condition",
            eq(key("k").0, key("k").1),
            true,
        ),
        (
            "one residual conjunct",
            and(eq(key("k").0, key("k").1), lt(key("m"))),
            true,
        ),
        ("=n key", null_safe_eq(key("kn").0, key("kn").1), true),
        ("NULL keys", eq(key("kn").0, key("kn").1), true),
        ("cross-type keys", eq(key("kx").0, key("kx").1), true),
        ("no equi key", lt(key("m")), false),
    ]
}

fn join(db: &Database, kind: JoinKind, condition: Expr) -> Plan {
    let l = PlanBuilder::scan(db, "l").unwrap();
    let r = PlanBuilder::scan(db, "r").unwrap().build();
    match kind {
        JoinKind::Inner => l.join(r, condition),
        JoinKind::LeftOuter => l.left_join(r, condition),
        JoinKind::Semi => l.semi_join(r, condition),
        JoinKind::Anti => l.anti_join(r, condition),
    }
    .build()
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

/// The five column maps over a join of output arity `arity` whose left
/// input has six columns: identity, reorder, a column twice, columns
/// dropped, and — where there is a right side — right-side-only.
fn column_maps(arity: usize) -> Vec<(&'static str, Vec<usize>)> {
    let last = arity - 1;
    vec![
        ("identity", (0..arity).collect()),
        ("reorder", (0..arity).rev().collect()),
        ("a column twice", vec![5, 0, 5, last, 1, 5]),
        ("columns dropped", vec![0, last]),
        if arity > 6 {
            ("right-side-only", (6..arity).collect())
        } else {
            ("one column", vec![5])
        },
    ]
}

fn executor(db: &Database, spilling: bool) -> Executor<'_> {
    match spilling {
        true => Executor::new(db)
            .with_memory_budget(Some(256 << 10))
            .with_spill(true),
        false => Executor::new(db),
    }
}

#[test]
fn a_projection_emitted_by_its_join_yields_the_reference_rows_in_the_reference_order() {
    // Hash joins get a build side whose table outgrows 256 KiB; the nested
    // loop, quadratic and never spilling, gets small inputs.
    let hashed = database(400, 24_000, 600);
    let looped = database(60, 90, 600);
    let mut cases = 0;
    for (shape, condition, hashes) in conditions() {
        let db = if hashes { &hashed } else { &looped };
        for kind in KINDS {
            let joined = join(db, kind, condition.clone());
            for (map_name, positions) in column_maps(joined.schema().arity()) {
                let plan = project(joined.clone(), &positions);
                let label = format!("{kind:?}, {shape}, Π {map_name}");
                let reference = Executor::new(db);
                let want = reference
                    .execute_unoptimized(&plan)
                    .unwrap_or_else(|e| panic!("{label}: reference failed: {e}"));
                if kind != JoinKind::Anti {
                    assert!(!want.is_empty(), "{label}: the case must have rows");
                }
                for spilling in [false, true] {
                    let label = format!("{label}, spilling {spilling}");
                    let ex = executor(db, spilling);
                    let compiled = ex.prepare(&plan).unwrap();
                    let (got, profile) = ex
                        .execute_profiled(&compiled)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(
                        got.tuples() == want.tuples(),
                        "{label}: the row sequence differs from the reference"
                    );
                    assert_eq!(got.schema(), want.schema(), "{label}");
                    assert_eq!(
                        ex.operators_evaluated(),
                        reference.operators_evaluated(),
                        "{label}: operators evaluated"
                    );
                    assert_eq!(profile.total_invocations(), ex.operators_evaluated());
                    assert_eq!(ex.spilled_bytes() > 0, spilling && hashes, "{label}");

                    // The Π reports what its join wrote for it; the join's
                    // rows out are the rows emitted, not its candidates.
                    let rows = got.len() as u64;
                    let pi = &profile.root;
                    assert_eq!(pi.operator, "project", "{label}");
                    assert!(
                        pi.detail.ends_with("(emitted by join)"),
                        "{label}: {}",
                        pi.detail
                    );
                    assert_eq!((pi.invocations, pi.rows_in, pi.rows_out), (1, rows, rows));
                    assert_eq!(pi.batches, rows.div_ceil(BATCH_ROWS as u64), "{label}");
                    let join = &pi.children[0];
                    assert_eq!(join.operator, "join", "{label}");
                    assert_eq!(join.rows_out, rows, "{label}");
                    assert!(
                        join.wall_nanos >= pi.wall_nanos,
                        "{label}: Π time holds the join's"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 6 * 4 * 5 * 2);
}

/// The compiled root of `plan`.
fn compiled(db: &Database, plan: &Plan) -> perm_exec::CompiledPlan {
    Executor::new(db).prepare(plan).unwrap()
}

/// Runs `plan` compiled and through the reference interpreter: the same row
/// list and the same operator count.
fn assert_matches_reference(db: &Database, label: &str, plan: &Plan) -> QueryProfile {
    let (profile, operators, reference_operators) = run_both(db, label, plan);
    assert_eq!(operators, reference_operators, "{label}");
    profile
}

/// The profile of `plan` run compiled — its rows asserted to be the
/// reference interpreter's, as a list — and both paths' operator counts.
fn run_both(db: &Database, label: &str, plan: &Plan) -> (QueryProfile, u64, u64) {
    let reference = Executor::new(db);
    let want = reference.execute_unoptimized(plan).unwrap();
    let ex = Executor::new(db);
    let (got, profile) = ex.execute_profiled(&ex.prepare(plan).unwrap()).unwrap();
    assert!(got.tuples() == want.tuples(), "{label}: rows differ");
    assert!(!got.is_empty(), "{label}: the case must have rows");
    (
        profile,
        ex.operators_evaluated(),
        reference.operators_evaluated(),
    )
}

#[test]
fn shapes_the_driver_must_not_fuse_decline() {
    let db = database(60, 90, 40);
    let joined = || join(&db, JoinKind::Inner, eq(key("k").0, key("k").1));
    let item = |table: &str, column: &str, alias: &str| {
        ProjectItem::new(qcol(table, column), alias).with_qualifier(table)
    };

    // A computed item: the Π evaluates, so it has no column map.
    let computed = PlanBuilder::from_plan(joined())
        .project(vec![
            item("l", "id", "id"),
            ProjectItem::new(binary(BinaryOp::Add, qcol("r", "m"), lit(1)), "m1"),
        ])
        .build();
    // `Π_S` deduplicates: not a row-for-row map.
    let distinct = PlanBuilder::from_plan(joined())
        .project_distinct(vec![item("l", "k", "k"), item("r", "m", "m")])
        .build();
    for (label, plan) in [("computed item", &computed), ("DISTINCT", &distinct)] {
        let plan_c = compiled(&db, plan);
        let CompiledNode::Project { column_map, .. } = plan_c.root() else {
            panic!("{label}: not a projection");
        };
        assert!(column_map.is_none(), "{label}");
        let profile = assert_matches_reference(&db, label, plan);
        assert!(!profile.root.detail.contains("emitted by join"), "{label}");
        assert_eq!(profile.root.batches, 1, "{label}: the Π ran its own loop");
    }

    // A slot of depth > 0: inside a correlated sublink, `l.id` is the outer
    // row's, not a column of the join below the Π.
    let inner = PlanBuilder::scan_as(&db, "r", Some("r2"))
        .unwrap()
        .join(
            PlanBuilder::scan(&db, "r").unwrap().build(),
            eq(qcol("r2", "id"), qcol("r", "id")),
        )
        .select(eq(qcol("r", "k"), qcol("l", "k")))
        .build();
    let correlated_pi = PlanBuilder::from_plan(inner)
        .project(vec![item("r", "id", "rid"), item("l", "id", "outer_id")])
        .build();
    let outer = PlanBuilder::scan(&db, "l")
        .unwrap()
        .select(exists_sublink(correlated_pi))
        .build();
    let outer_c = compiled(&db, &outer);
    let CompiledNode::Select { predicate, .. } = outer_c.root() else {
        panic!("not a selection");
    };
    let CompiledExpr::Sublink(sublink) = predicate else {
        panic!("not a sublink");
    };
    let CompiledNode::Project {
        column_map, items, ..
    } = &sublink.plan
    else {
        panic!("the sublink plan is not a projection");
    };
    assert!(matches!(items[1], CompiledExpr::Slot(slot) if slot.depth == 1));
    assert!(column_map.is_none(), "depth > 0 slot");
    // (The two paths key a correlated sublink's memo differently, so their
    // operator counts are not comparable here.)
    run_both(&db, "depth > 0 slot", &outer);

    // A sublink in the condition: no equi key is extracted, the nested loop
    // rechecks every pair — and still writes the Π's rows itself.
    let probe = PlanBuilder::scan_as(&db, "r", Some("r3"))
        .unwrap()
        .select(eq(qcol("r3", "id"), qcol("l", "id")))
        .build();
    let with_sublink = join(
        &db,
        JoinKind::Inner,
        and(eq(key("k").0, key("k").1), exists_sublink(probe)),
    );
    let with_sublink = project(with_sublink, &[7, 0]);
    let with_sublink_c = compiled(&db, &with_sublink);
    let CompiledNode::Project {
        input, column_map, ..
    } = with_sublink_c.root()
    else {
        panic!("not a projection");
    };
    assert_eq!(column_map.as_ref().map(|m| m.cols()), Some(&[7, 0][..]));
    let CompiledNode::Join {
        equi_keys,
        keys_cover_condition,
        ..
    } = &**input
    else {
        panic!("not a join");
    };
    assert!(equi_keys.is_empty() && !keys_cover_condition);
    let profile = assert_matches_reference(&db, "sublink in the condition", &with_sublink);
    assert!(profile.root.detail.ends_with("(emitted by join)"));
    assert_eq!(profile.root.children[0].detail, "Inner nested-loop");

    // Keys plus a residual conjunct are hashed but do not cover it; keys
    // alone do.
    for (condition, covers) in [
        (eq(key("k").0, key("k").1), true),
        (
            and(eq(key("k").0, key("k").1), eq(key("kn").0, key("kn").1)),
            true,
        ),
        (
            and(eq(key("k").0, key("k").1), eq(qcol("l", "m"), lit(3))),
            false,
        ),
        (eq(qcol("l", "m"), qcol("l", "k")), false),
    ] {
        let plan_c = compiled(&db, &join(&db, JoinKind::LeftOuter, condition.clone()));
        let CompiledNode::Join {
            keys_cover_condition,
            ..
        } = plan_c.root()
        else {
            panic!("not a join");
        };
        assert_eq!(*keys_cover_condition, covers, "{condition:?}");
    }
}

#[test]
fn a_pass_through_projection_over_any_other_child_gathers_by_position() {
    let db = database(2500, 10, 40);
    let filtered = PlanBuilder::scan(&db, "l")
        .unwrap()
        .select(cmp(CompareOp::Lt, qcol("l", "m"), lit(5)))
        .build();
    // A σ builds its survivors through the Π's map (`tests/producer_emit.rs`);
    // a `UNION ALL` hands its rows up, and the Π gathers them.
    let union = PlanBuilder::scan(&db, "l")
        .unwrap()
        .set_op(SetOpKind::Union, true, filtered.clone())
        .build();
    for (child, emitted_by) in [(&filtered, Some("select")), (&union, None)] {
        for (label, positions) in column_maps(6) {
            let plan = project(child.clone(), &positions);
            let profile = assert_matches_reference(&db, label, &plan);
            let rows = profile.root.rows_out;
            assert_eq!(profile.root.rows_in, rows, "{label}");
            assert_eq!(
                profile.root.batches,
                rows.div_ceil(BATCH_ROWS as u64),
                "{label}"
            );
            assert!(!profile.root.detail.contains("emitted by join"), "{label}");
            match emitted_by {
                Some(op) => assert!(
                    profile.root.detail.ends_with(&format!("(emitted by {op})")),
                    "{label}"
                ),
                None => assert!(!profile.root.detail.contains("emitted by"), "{label}"),
            }
        }
    }
}

/// `keys` keys, each shared by `left` left rows, each of which has a bucket
/// of `right` mates.
fn buckets(keys: i64, left: i64, right: i64) -> (Database, Plan) {
    let mut db = Database::new();
    for (name, rows) in [("l", left), ("r", right)] {
        let schema = Schema::from_names(&["id", "k"]).with_qualifier(name);
        let rows = (0..keys * rows)
            .map(|i| vec![Value::Int(i), Value::Int(i % keys)])
            .collect();
        db.create_table(name, Relation::from_rows(schema, rows))
            .unwrap();
    }
    let plan = join(&db, JoinKind::Inner, eq(key("k").0, key("k").1));
    (db, plan)
}

#[test]
fn a_bucket_longer_than_a_batch_is_cancelled_inside_it() {
    // 2 build batches, 1 probe batch, then 512 buckets of 2048 matches: a
    // million rows nothing rechecks. The join is the plan's root, so every
    // checkpoint after the third is one its emission makes.
    let mates = 2 * BATCH_ROWS as i64;
    let (db, plan) = buckets(1, 512, mates);

    // A deadline: the clock is read at the first checkpoint and then at
    // every 64th, so an expired deadline is seen 62 batches into the
    // emission — inside the 31st left row's bucket — or, on a machine that
    // takes a millisecond to get going, at the very first, which the left
    // scan polls.
    let ex = Executor::new(&db).with_deadline(Duration::from_millis(1));
    let err = ex.execute(&plan).unwrap_err();
    assert!(matches!(err, ExecError::Cancelled { .. }), "{err}");
    match ex.stats().cancel_checks {
        // The left scan's checkpoint.
        1 => {}
        // Inside the join's emission.
        65 => {}
        checks => panic!("cancelled at checkpoint {checks}"),
    }

    // The same place, by count: the fifth checkpoint is the second inside
    // the first left row's bucket, and nothing runs after it.
    let fault = FaultPlan::new(FaultKind::Cancel, FaultSite::Checkpoint, 5);
    let ex = Executor::new(&db).with_fault_plan(fault.clone());
    assert!(matches!(
        ex.execute(&plan).unwrap_err(),
        ExecError::Cancelled { .. }
    ));
    assert!(fault.fired());
    assert_eq!((fault.events_seen(), ex.stats().cancel_checks), (5, 5));

    // Uncancelled, the join checkpoints once per batch of rows read and once
    // per batch of rows emitted.
    let (db, plan) = buckets(1, 3, mates);
    let ex = Executor::new(&db);
    assert_eq!(ex.execute(&plan).unwrap().len() as i64, 3 * mates);
    assert_eq!(ex.stats().cancel_checks, 2 + 2 + 1 + 6);

    // On the grace path: twelve keys with a bucket each outgrow 256 KiB, so
    // the build goes to partitions (one key alone would be one partition
    // that cannot fit). The join checkpoints once per batch of build rows,
    // of left rows routed, of build rows read back per partition — a bucket
    // is two — and of rows emitted, counted across partitions.
    let (db, plan) = buckets(12, 1, mates);
    let spilling = || {
        Executor::new(&db)
            .with_memory_budget(Some(256 << 10))
            .with_spill(true)
    };
    let ex = spilling();
    assert_eq!(ex.execute(&plan).unwrap().len() as i64, 12 * mates);
    assert!(ex.spill_partitions() > 0);
    assert_eq!(ex.stats().cancel_checks, 2 + 24 + 1 + 12 * 2 + 24);

    // The thirtieth checkpoint is the first inside the first partition's
    // bucket, after its two batches read back; nothing runs after it.
    let fault = FaultPlan::new(FaultKind::Cancel, FaultSite::Checkpoint, 30);
    let ex = spilling().with_fault_plan(fault.clone());
    assert!(matches!(
        ex.execute(&plan).unwrap_err(),
        ExecError::Cancelled { .. }
    ));
    assert!(fault.fired());
    assert!(ex.spill_partitions() > 0);
    assert_eq!((fault.events_seen(), ex.stats().cancel_checks), (30, 30));
}

/// Values of one variant (0 – 4: `Int`, `Float`, `Date`, `Bool`, `Str`; 5:
/// any of them), NULL one time in six: the edge cases of `keys.rs` plus a
/// narrow random range, so that equal pairs are common.
fn random_value(rng: &mut StdRng, variant: usize) -> Value {
    const TWO_53: i64 = 1 << 53;
    if rng.gen_range(0..6) == 0 {
        return Value::Null;
    }
    let small = rng.gen_range(-2..3i64);
    let pick = rng.gen_range(0..8);
    match if variant == 5 {
        rng.gen_range(0..5)
    } else {
        variant
    } {
        0 => Value::Int(match pick {
            0 => TWO_53,
            1 => TWO_53 + 1,
            2 => i64::MAX,
            _ => small,
        }),
        1 => Value::Float(match pick {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => -0.0,
            3 => TWO_53 as f64,
            4 => small as f64 + 0.5,
            5 => f64::INFINITY,
            _ => small as f64,
        }),
        2 => Value::Date(small as i32),
        3 => Value::Bool(small % 2 == 0),
        _ => Value::Str(match pick {
            0 => String::new().into(),
            1 => "1".into(),
            _ => format!("{small}").into(),
        }),
    }
}

/// `values` as a key column: the typed lane of its first non-NULL value
/// (demoting itself to `Values` when the variants mix), or `Values` as is.
fn lane(values: &[Value], typed: bool) -> ColumnVec {
    let mut column = match values.iter().find(|v| !v.is_null()) {
        Some(first) if typed => ColumnVec::typed_for(first, values.len()),
        _ => ColumnVec::values_with_capacity(values.len()),
    };
    for v in values {
        column.push_value(v.clone());
    }
    column
}

#[test]
fn equal_live_keys_are_exactly_the_comparison_the_recheck_would_make() {
    const ROWS: usize = 96;
    let mut rng = StdRng::seed_from_u64(0x6a6f696e);
    let mut true_pairs = 0;
    for left_variant in 0..6 {
        for right_variant in 0..6 {
            let left: Vec<Value> = (0..ROWS)
                .map(|_| random_value(&mut rng, left_variant))
                .collect();
            let right: Vec<Value> = (0..ROWS)
                .map(|_| random_value(&mut rng, right_variant))
                .collect();
            for (left_typed, right_typed) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                let columns = [lane(&left, left_typed), lane(&right, right_typed)];
                assert_eq!(columns[0].is_typed(), left_typed && left_variant < 5);
                for null_safe in [false, true] {
                    let [(l_live, l_keys), (r_live, r_keys)] = columns.each_ref().map(|column| {
                        let mut live = vec![true; ROWS];
                        let mut keys = vec![Vec::new(); ROWS];
                        encode_key_column_filtered(column, null_safe, &mut live, &mut keys);
                        (live, keys)
                    });
                    for i in 0..ROWS {
                        let (a, b) = (&left[i], &right[i]);
                        let bucket_mates = l_live[i] && r_live[i] && l_keys[i] == r_keys[i];
                        let matches = match null_safe {
                            true => a.null_safe_eq(b),
                            false => compare(CompareOp::Eq, a, b) == Truth::True,
                        };
                        assert_eq!(bucket_mates, matches, "{a:?} vs {b:?}, =n {null_safe}");
                        true_pairs += usize::from(matches);
                    }
                }
            }
        }
    }
    assert!(
        true_pairs > 1000,
        "only {true_pairs} equal pairs: the test lost its subject"
    );
}
