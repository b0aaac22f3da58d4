//! A nested-loop join evaluates the leading conjuncts of its condition that
//! read only the left input once per left row, over batches of left rows,
//! and only the rest per (left row, right row) pair — Gen's
//! `σ_{C ∧ Csub₁⁺ ∧ …}(T⁺ × CrossBase(…))` fused into a join, whose `C` and
//! every `Csubᵢ⁺` but the last read `T⁺` alone. None of it may be visible:
//! every case is compared with the reference interpreter, which evaluates
//! the whole condition per pair, as a row *list* or as the same error — under
//! every join kind, with prefixes that are TRUE, FALSE and UNKNOWN on
//! different rows, a prefix that is the whole condition, prefixes and rests
//! that fail on chosen rows, a right side longer than a batch, a correlated
//! sublink in the prefix, and with batching or columnar execution off.

use perm::prelude::*;
use perm_algebra::builder::{and, binary, cmp, conjunction, exists_sublink, or, scalar_sublink};
use perm_algebra::{BinaryOp, CompareOp, Expr, JoinKind, Plan};
use perm_exec::{CompiledNode, ExecError, ProfileNode, BATCH_ROWS};

const KINDS: [JoinKind; 4] = [
    JoinKind::Inner,
    JoinKind::LeftOuter,
    JoinKind::Semi,
    JoinKind::Anti,
];

/// `name(id, k, m, n, s)` with `rows` rows: `k` over `keys` values, `m`
/// over 0..7, `n` the same with every third row NULL, `s` a string that
/// names the row (arithmetic over it fails with an error naming it).
fn table(name: &str, rows: i64, keys: i64) -> Relation {
    Relation::from_rows(
        Schema::from_names(&["id", "k", "m", "n", "s"]).with_qualifier(name),
        (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int((i * 7) % keys),
                    Value::Int(i % 7),
                    match i % 3 {
                        0 => Value::Null,
                        _ => Value::Int(i % 5),
                    },
                    Value::Str(format!("{name}{i}").into()),
                ]
            })
            .collect(),
    )
}

/// `l`, `r` and a sublink table `t`, with the given row counts.
fn database(l_rows: i64, r_rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table("l", table("l", l_rows, 11)).unwrap();
    db.create_table("r", table("r", r_rows, 13)).unwrap();
    db.create_table("t", table("t", 9, 5)).unwrap();
    db
}

fn l(column: &str) -> Expr {
    qcol("l", column)
}

fn r(column: &str) -> Expr {
    qcol("r", column)
}

fn lt(a: Expr, b: Expr) -> Expr {
    cmp(CompareOp::Lt, a, b)
}

/// TRUE on every row but left row `id`, where `l.s + 0` fails.
fn fails_on_left(id: i64) -> Expr {
    or(
        cmp(CompareOp::Neq, l("id"), lit(id)),
        lt(binary(BinaryOp::Add, l("s"), lit(0)), lit(0)),
    )
}

/// TRUE on every pair but those of left row `id`, where `l.s + r.id` fails
/// (its error names the row).
fn fails_on_pair(id: i64) -> Expr {
    or(
        cmp(CompareOp::Neq, l("id"), lit(id)),
        lt(binary(BinaryOp::Add, l("s"), r("id")), lit(0)),
    )
}

fn join(db: &Database, kind: JoinKind, condition: Expr) -> Plan {
    let left = PlanBuilder::scan(db, "l").unwrap();
    let right = PlanBuilder::scan(db, "r").unwrap().build();
    match kind {
        JoinKind::Inner => left.join(right, condition),
        JoinKind::LeftOuter => left.left_join(right, condition),
        JoinKind::Semi => left.semi_join(right, condition),
        JoinKind::Anti => left.anti_join(right, condition),
    }
    .build()
}

/// The three executor settings every case runs under.
fn executors(db: &Database) -> [(&'static str, Executor<'_>); 3] {
    [
        ("default", Executor::new(db)),
        ("batching off", Executor::new(db).with_batching(false)),
        ("columnar off", Executor::new(db).with_columnar(false)),
    ]
}

/// The join's count of conjuncts evaluated per left row.
fn left_conjuncts(db: &Database, plan: &Plan) -> usize {
    let compiled = Executor::new(db).prepare(plan).unwrap();
    match compiled.root() {
        CompiledNode::Join {
            left_conjuncts,
            equi_keys,
            ..
        } => {
            assert!(equi_keys.is_empty(), "the join must be a nested loop");
            *left_conjuncts
        }
        other => panic!("not a join: {other:?}"),
    }
}

/// Runs `plan` compiled under every setting and asserts the reference
/// interpreter's rows, in order, or its error. Returns the reference's
/// outcome.
fn assert_matches_reference(
    db: &Database,
    label: &str,
    plan: &Plan,
) -> Result<Relation, ExecError> {
    let want = Executor::new(db).execute_unoptimized(plan);
    for (setting, ex) in executors(db) {
        let compiled = ex.prepare(plan).unwrap();
        let (got, profile) = match ex.execute_profiled(&compiled) {
            Ok((rel, profile)) => (Ok(rel), Some(profile)),
            Err(e) => (Err(e), None),
        };
        match (&got, &want) {
            (Ok(got), Ok(want)) => assert!(
                got.tuples() == want.tuples(),
                "{label}, {setting}: the row sequence differs from the reference"
            ),
            (Err(got), Err(want)) => assert_eq!(got, want, "{label}, {setting}"),
            (got, want) => panic!("{label}, {setting}: {got:?} where the reference has {want:?}"),
        }
        if let Some(profile) = profile {
            assert_eq!(
                profile.total_invocations(),
                ex.operators_evaluated(),
                "{label}, {setting}: per-node invocations sum to the counter"
            );
        }
    }
    want
}

#[test]
fn every_kind_and_prefix_mix_yields_the_reference_rows() {
    let db = database(70, 40);
    let shapes = [
        // (name, condition, conjuncts per left row)
        (
            "TRUE / FALSE prefix",
            and(lt(l("m"), lit(4)), lt(l("k"), r("k"))),
            1,
        ),
        (
            "TRUE / FALSE / UNKNOWN prefix",
            and(lt(l("n"), lit(3)), lt(l("k"), r("k"))),
            1,
        ),
        (
            "two of four",
            conjunction([
                lt(l("n"), lit(4)),
                cmp(CompareOp::Neq, l("m"), lit(2)),
                lt(l("k"), r("k")),
                lt(r("m"), lit(5)),
            ]),
            2,
        ),
        (
            "a right-reading conjunct first",
            and(lt(l("k"), r("k")), lt(l("m"), lit(4))),
            0,
        ),
        (
            "the whole condition",
            and(lt(l("n"), lit(4)), cmp(CompareOp::Neq, l("m"), lit(2))),
            2,
        ),
        ("the whole condition, one conjunct", lt(l("n"), lit(3)), 1),
        ("the whole condition, all FALSE", lt(l("m"), lit(0)), 1),
    ];
    for (shape, condition, prefix) in shapes {
        for kind in KINDS {
            let label = format!("{kind:?}, {shape}");
            let plan = join(&db, kind, condition.clone());
            assert_eq!(left_conjuncts(&db, &plan), prefix, "{label}");
            let rows = assert_matches_reference(&db, &label, &plan).expect("no error");
            if kind == JoinKind::LeftOuter {
                assert!(rows.len() >= 70, "{label}");
            }
        }
    }
}

#[test]
fn the_profile_names_the_conjuncts_run_per_left_row() {
    let db = database(30, 20);
    for (condition, detail) in [
        (
            conjunction([lt(l("n"), lit(4)), lt(l("m"), lit(5)), lt(l("k"), r("k"))]),
            "Inner nested-loop, 2 of 3 conjuncts per left row",
        ),
        (
            lt(l("m"), lit(4)),
            "Inner nested-loop, 1 of 1 conjuncts per left row",
        ),
        (lt(l("k"), r("k")), "Inner nested-loop"),
    ] {
        let plan = join(&db, JoinKind::Inner, condition);
        let ex = Executor::new(&db);
        let (_, profile) = ex.execute_profiled(&ex.prepare(&plan).unwrap()).unwrap();
        assert_eq!(profile.root.detail, detail);
    }
}

#[test]
fn a_prefix_over_an_empty_right_side_is_never_evaluated() {
    let db = database(40, 0);
    for kind in KINDS {
        let condition = and(fails_on_left(3), lt(l("k"), r("k")));
        let plan = join(&db, kind, condition);
        assert_eq!(left_conjuncts(&db, &plan), 1);
        let label = format!("{kind:?}, failing prefix, empty right side");
        let rows = assert_matches_reference(&db, &label, &plan).expect("no pair, no error");
        let expected = match kind {
            JoinKind::Inner | JoinKind::Semi => 0,
            JoinKind::LeftOuter | JoinKind::Anti => 40,
        };
        assert_eq!(rows.len(), expected, "{label}");
    }
}

#[test]
fn errors_surface_as_the_per_pair_loop_raises_them() {
    let db = database(60, 25);
    let cases = [
        // An UNKNOWN prefix lets no row survive, but its pairs still
        // evaluate the rest: row 3 has `n` NULL, and its rest fails.
        (
            "UNKNOWN prefix, failing rest",
            and(lt(l("n"), lit(3)), fails_on_pair(3)),
            3,
        ),
        // A FALSE prefix shields the rest: row 10 has `m` = 3.
        (
            "FALSE prefix, failing rest",
            conjunction([lt(l("m"), lit(3)), fails_on_pair(10), lt(l("k"), r("k"))]),
            0,
        ),
        // The rest fails on row 4, the prefix on row 40: row 4's error.
        (
            "rest fails before the prefix",
            conjunction([fails_on_left(40), fails_on_pair(4)]),
            4,
        ),
        // And the other way round.
        (
            "prefix fails before the rest",
            conjunction([fails_on_left(5), fails_on_pair(40)]),
            5,
        ),
        // Two rows' rests fail, the later one in an earlier conjunct: the
        // first row's error, as a loop over left rows raises it.
        (
            "two failing rests",
            conjunction([
                lt(l("m"), lit(7)),
                lt(l("k"), binary(BinaryOp::Add, r("k"), lit(0))),
                fails_on_pair(20),
                fails_on_pair(9),
            ]),
            9,
        ),
        // A prefix that is the whole condition fails on row 17.
        (
            "whole prefix fails",
            conjunction([lt(l("m"), lit(7)), fails_on_left(17)]),
            17,
        ),
    ];
    for (shape, condition, row) in cases {
        for kind in KINDS {
            let label = format!("{kind:?}, {shape}");
            let plan = join(&db, kind, condition.clone());
            let outcome = assert_matches_reference(&db, &label, &plan);
            // Row 10 is shielded by its FALSE prefix (`m` = 3): no error.
            match (shape, outcome) {
                ("FALSE prefix, failing rest", outcome) => {
                    assert!(outcome.is_ok(), "{label}: {outcome:?}")
                }
                (_, Err(e)) => {
                    let named = format!("`l{row}`");
                    assert!(e.to_string().contains(&named), "{label}: {e}");
                }
                (_, Ok(_)) => panic!("{label}: the case must fail"),
            }
        }
    }
}

#[test]
fn a_right_side_longer_than_a_batch_stops_semi_and_anti_rows_at_their_first_match() {
    let right_rows = 2 * BATCH_ROWS as i64 + 100;
    let db = database(40, right_rows);
    // A pair of a later right chunk fails; every row whose prefix holds
    // matches in the first chunk, so a semi / anti row never reaches it.
    let later_chunk_fails = or(
        lt(r("id"), lit(BATCH_ROWS as i64)),
        lt(binary(BinaryOp::Add, l("s"), r("id")), lit(0)),
    );
    let stops = conjunction([
        lt(l("m"), lit(4)),
        cmp(CompareOp::Ge, r("id"), l("id")),
        later_chunk_fails.clone(),
    ]);
    for kind in [JoinKind::Semi, JoinKind::Anti] {
        let label = format!("{kind:?}, long right side");
        let plan = join(&db, kind, stops.clone());
        assert_eq!(left_conjuncts(&db, &plan), 1, "{label}");
        let rows = assert_matches_reference(&db, &label, &plan).expect("no later chunk runs");
        assert!(!rows.is_empty(), "{label}");
    }
    // An UNKNOWN prefix lets no row match, so its pairs run on into the
    // failing chunk under every kind.
    let unknown = conjunction([
        lt(l("n"), lit(4)),
        cmp(CompareOp::Ge, r("id"), l("id")),
        later_chunk_fails,
    ]);
    for kind in KINDS {
        let label = format!("{kind:?}, long right side, UNKNOWN prefix");
        let plan = join(&db, kind, unknown.clone());
        assert!(
            assert_matches_reference(&db, &label, &plan).is_err(),
            "{label}"
        );
    }
    // Every kind, without errors: the rows span three right chunks.
    let spans = and(
        lt(l("n"), lit(3)),
        lt(binary(BinaryOp::Mod, r("id"), lit(600)), l("id")),
    );
    for kind in KINDS {
        let label = format!("{kind:?}, long right side, no error");
        let plan = join(&db, kind, spans.clone());
        assert_matches_reference(&db, &label, &plan).expect("no error");
    }
}

/// The invocations of every sublink subtree under `node`.
fn sublink_invocations(node: &ProfileNode) -> u64 {
    let below: u64 = node.children.iter().map(sublink_invocations).sum();
    let sublinks: u64 = node
        .sublinks
        .iter()
        .map(|s| s.invocations + sublink_invocations(s))
        .sum();
    below + sublinks
}

#[test]
fn a_correlated_sublink_in_the_prefix_runs_once_per_binding() {
    let db = database(80, 30);
    let correlated = || {
        PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(CompareOp::Eq, qcol("t", "k"), l("k")))
            .build()
    };
    let max_m = || {
        PlanBuilder::scan(&db, "t")
            .unwrap()
            .select(cmp(CompareOp::Lt, qcol("t", "id"), l("m")))
            .aggregate(
                vec![],
                vec![perm_algebra::builder::max(qcol("t", "m"), "x")],
            )
            .build()
    };
    // Gen's shape: the outer condition, an EXISTS and a scalar sublink over
    // the left row, then the pair's own conjunct.
    let condition = conjunction([
        lt(l("m"), lit(5)),
        exists_sublink(correlated()),
        cmp(CompareOp::Ge, scalar_sublink(max_m()), lit(0)),
        lt(l("k"), r("k")),
    ]);
    let left_rows: Vec<(i64, i64)> = (0..80).map(|i| ((i * 7) % 11, i % 7)).collect();
    let reached: Vec<i64> = left_rows
        .iter()
        .filter(|(_, m)| *m < 5)
        .map(|(k, _)| *k)
        .collect();
    let mut exists_bindings = reached.clone();
    exists_bindings.sort_unstable();
    exists_bindings.dedup();
    // The scalar sublink runs for the rows whose key `t` holds (`t.k` is
    // `i * 7 % 5` over nine rows: every key below 5).
    let mut scalar_bindings: Vec<i64> = left_rows
        .iter()
        .filter(|(k, m)| *m < 5 && *k < 5)
        .map(|(_, m)| *m)
        .collect();
    scalar_bindings.sort_unstable();
    scalar_bindings.dedup();
    for kind in KINDS {
        let label = format!("{kind:?}, correlated sublinks in the prefix");
        let plan = join(&db, kind, condition.clone());
        assert_eq!(left_conjuncts(&db, &plan), 3, "{label}");
        assert_matches_reference(&db, &label, &plan).expect("no error");
        let ex = Executor::new(&db);
        let (_, profile) = ex.execute_profiled(&ex.prepare(&plan).unwrap()).unwrap();
        assert_eq!(
            sublink_invocations(&profile.root),
            (exists_bindings.len() + scalar_bindings.len()) as u64,
            "{label}: one run per distinct binding reached"
        );
        let stats = ex.stats();
        assert_eq!(
            stats.memo_misses,
            (exists_bindings.len() + scalar_bindings.len()) as u64
        );
        // Once per left row reached, not once per pair.
        assert_eq!(
            stats.memo_hits + stats.memo_misses,
            (reached.len() + left_rows.iter().filter(|(k, m)| *m < 5 && *k < 5).count()) as u64,
            "{label}: one lookup per left row"
        );
    }
}
