//! An `ANY` / `ALL` sublink costs one hash probe per row: the compiled path
//! summarises each sublink result once into a `QuantProbe` and reads every
//! verdict from it, and evaluates an uncorrelated sublink once per batch
//! instead of once per row. Neither may be visible:
//!
//! * the probe's verdict is the interpreter's fold for all 12 (quantifier,
//!   operator) pairs over random result multisets of hostile values;
//! * uncorrelated `ANY` / `ALL` / `EXISTS` / scalar sublinks at 0, 1, 1023,
//!   1024 and 1025 outer rows give the reference's rows *as a list* in
//!   every execution mode, and a failing one raises exactly where the
//!   reference does;
//! * probes are memoized, as the sublink's summary, per parameter vector,
//!   survive a budget that refuses them, and are shared by every executor
//!   that runs the compiled plan;
//! * an `IN` / `ANY` / `ALL` subquery of more than one column is refused —
//!   at bind time in SQL, with a typed error for a hand-built plan.

use perm::prelude::*;
use perm::{PermError, ProfileNode, SessionConfig};
use perm_algebra::builder::{
    all_sublink, and, any_sublink, binary, exists_sublink, lit, max, not, scalar_sublink,
};
use perm_algebra::{BinaryOp, CompareOp, Expr, Plan, ProjectItem, SublinkKind};
use perm_core::ProvenanceError;
use perm_exec::eval::fold_quantified;
use perm_exec::{ExecError, QuantProbe, BATCH_ROWS};
use perm_sql::SqlError;
use perm_storage::Truth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [CompareOp; 6] = [
    CompareOp::Eq,
    CompareOp::Neq,
    CompareOp::Lt,
    CompareOp::Le,
    CompareOp::Gt,
    CompareOp::Ge,
];
const KINDS: [SublinkKind; 2] = [SublinkKind::Any, SublinkKind::All];

/// Values on which a summary could go wrong: NULL, NaN in four spellings,
/// ±0.0, 2⁵³ and 2⁵³ + 1 as `Int` and `Float` (the `Float` rounds to 2⁵³),
/// every numeric variant around the same small numbers, and strings —
/// including ones that look like numbers.
fn hostile_values() -> Vec<Value> {
    const TWO_53: i64 = 1 << 53;
    vec![
        Value::Null,
        Value::Float(f64::NAN),
        Value::Float(-f64::NAN),
        Value::Float(f64::from_bits(0x7FF8_0000_0000_0001)),
        Value::Float(f64::from_bits(0xFFF0_0000_0000_0002)),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(0),
        Value::Int(TWO_53),
        Value::Int(TWO_53 + 1),
        Value::Float(TWO_53 as f64),
        Value::Float((TWO_53 + 1) as f64),
        Value::Float(TWO_53 as f64 + 2.0),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Int(-3),
        Value::Int(1),
        Value::Int(7),
        Value::Float(1.0),
        Value::Float(1.5),
        Value::Float(7.0),
        Value::Date(-3),
        Value::Date(1),
        Value::Date(7),
        Value::Bool(false),
        Value::Bool(true),
        Value::str(""),
        Value::str("1"),
        Value::str("7"),
        Value::str("NaN"),
        Value::str("a"),
        Value::str("b"),
    ]
}

fn one_column(rows: Vec<Value>) -> Relation {
    Relation::from_rows(
        Schema::from_names(&["c"]),
        rows.into_iter().map(|v| vec![v]).collect(),
    )
}

#[test]
fn the_probe_is_the_fold_for_every_quantifier_and_operator() {
    let pool = hostile_values();
    let numeric = |v: &Value| !matches!(v, Value::Str(_) | Value::Null);
    let mut rng = StdRng::seed_from_u64(25);
    let mut verdicts = [0usize; 3];
    for round in 0..3000 {
        // Results drawn from all of the pool, or from one class (plus
        // NULL), so that both the mixed and the pure cases are common.
        let palette: Vec<&Value> = match round % 4 {
            0 | 1 => pool.iter().collect(),
            2 => pool.iter().filter(|v| numeric(v) || v.is_null()).collect(),
            _ => pool.iter().filter(|v| !numeric(v)).collect(),
        };
        let len = rng.gen_range(0..7usize);
        let rows: Vec<Value> = (0..len)
            .map(|_| palette[rng.gen_range(0..palette.len())].clone())
            .collect();
        let result = one_column(rows.clone());
        let probe = QuantProbe::build(&result).unwrap();
        for test in &pool {
            for kind in KINDS {
                for op in OPS {
                    let folded = fold_quantified(kind, op, test, &rows);
                    assert_eq!(
                        probe.verdict(kind, op, test),
                        folded,
                        "{test:?} {op:?} {kind:?} {rows:?}"
                    );
                    verdicts[match folded {
                        Truth::True => 0,
                        Truth::False => 1,
                        Truth::Unknown => 2,
                    }] += 1;
                }
            }
        }
    }
    // The sweep reaches every verdict often, not just the easy ones.
    assert!(verdicts.iter().all(|&n| n > 50_000), "{verdicts:?}");
}

/// `r(a, b)` with `n` rows — `a` cycles over 0..20 with every seventh row
/// NULL, `b` is the row number — and the sublink tables `s(c)` = 0, 3, …,
/// 15 and `sn(c)`, the same plus a NULL.
fn database(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::from_names(&["a", "b"]).with_qualifier("r"),
            (0..n as i64)
                .map(|i| {
                    let a = if i % 7 == 3 {
                        Value::Null
                    } else {
                        Value::Int(i % 20)
                    };
                    vec![a, Value::Int(i)]
                })
                .collect(),
        ),
    )
    .unwrap();
    let s: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Int(3 * i)]).collect();
    let mut sn = s.clone();
    sn.push(vec![Value::Null]);
    db.create_table(
        "s",
        Relation::from_rows(Schema::from_names(&["c"]).with_qualifier("s"), s),
    )
    .unwrap();
    db.create_table(
        "sn",
        Relation::from_rows(Schema::from_names(&["c"]).with_qualifier("sn"), sn),
    )
    .unwrap();
    db
}

fn scan(db: &Database, table: &str) -> Plan {
    PlanBuilder::scan(db, table).unwrap().build()
}

/// `Π_{a, v}(r)` and `σ_v(r)` for one sublink-bearing expression `v`.
fn shapes(db: &Database, v: Expr) -> [Plan; 2] {
    [
        PlanBuilder::scan(db, "r")
            .unwrap()
            .project(vec![
                ProjectItem::column("a"),
                ProjectItem::new(v.clone(), "v"),
            ])
            .build(),
        PlanBuilder::scan(db, "r").unwrap().select(v).build(),
    ]
}

/// Every uncorrelated sublink form the batch path answers.
fn uncorrelated_sublinks(db: &Database) -> Vec<Expr> {
    let mut out = Vec::new();
    for table in ["s", "sn"] {
        for op in OPS {
            out.push(any_sublink(col("a"), op, scan(db, table)));
            out.push(all_sublink(col("a"), op, scan(db, table)));
        }
        out.push(exists_sublink(scan(db, table)));
        out.push(binary(
            BinaryOp::Cmp(CompareOp::Lt),
            col("a"),
            scalar_sublink(
                PlanBuilder::scan(db, table)
                    .unwrap()
                    .aggregate(vec![], vec![max(col("c"), "m")])
                    .build(),
            ),
        ));
    }
    out.push(not(exists_sublink(
        PlanBuilder::scan(db, "s")
            .unwrap()
            .select(cmp(CompareOp::Gt, col("c"), lit(100)))
            .build(),
    )));
    out
}

fn cmp(op: CompareOp, l: Expr, r: Expr) -> Expr {
    perm_algebra::builder::cmp(op, l, r)
}

/// The compiled modes the batch path must agree with, row for row.
fn modes(db: &Database) -> [(&'static str, Executor<'_>); 3] {
    [
        ("per-tuple", Executor::new(db).with_batching(false)),
        ("values-lane", Executor::new(db).with_columnar(false)),
        ("columnar", Executor::new(db)),
    ]
}

#[test]
fn uncorrelated_sublinks_run_a_batch_at_a_time_and_agree_row_for_row() {
    for n in [0, 1, BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1] {
        let db = database(n);
        for v in uncorrelated_sublinks(&db) {
            for (shape, plan) in ["Π", "σ"].into_iter().zip(shapes(&db, v.clone())) {
                let reference = Executor::new(&db).execute_unoptimized(&plan).unwrap();
                for (mode, ex) in modes(&db) {
                    let got = ex.execute(&plan).unwrap();
                    let at = format!("{mode}, {n} rows, {shape}: {v}");
                    assert_eq!(got.tuples(), reference.tuples(), "{at}");
                    if mode != "per-tuple" {
                        assert_eq!(ex.batch_fallback_rows(), 0, "{at}");
                    }
                }
            }
        }
        // One probe per query, however many batches read it.
        let ex = Executor::new(&db);
        let [project, _] = shapes(&db, any_sublink(col("a"), CompareOp::Eq, scan(&db, "sn")));
        ex.execute(&project).unwrap();
        assert_eq!(
            ex.stats().quantifier_comparisons,
            if n == 0 { 0 } else { 7 }
        );
    }
}

/// `Π_{c / 0}(s)`: a sublink plan that raises once it runs.
fn failing(db: &Database) -> Plan {
    PlanBuilder::scan(db, "s")
        .unwrap()
        .project(vec![ProjectItem::new(
            binary(BinaryOp::Div, col("c"), lit(0)),
            "z",
        )])
        .build()
}

#[test]
fn a_failing_uncorrelated_sublink_raises_exactly_where_the_reference_does() {
    let db = database(BATCH_ROWS + 1);
    let sublinks = [
        any_sublink(col("a"), CompareOp::Eq, failing(&db)),
        all_sublink(col("a"), CompareOp::Lt, failing(&db)),
        exists_sublink(
            PlanBuilder::from_plan(failing(&db))
                .select(cmp(CompareOp::Gt, col("z"), lit(0)))
                .build(),
        ),
        binary(
            BinaryOp::Cmp(CompareOp::Eq),
            col("a"),
            scalar_sublink(
                PlanBuilder::from_plan(failing(&db))
                    .aggregate(vec![], vec![max(col("z"), "m")])
                    .build(),
            ),
        ),
    ];
    let b = || col("b");
    for sublink in sublinks {
        // Shielded: a FALSE conjunct, a range no row is in, a CASE branch
        // no row takes.
        let shielded = [
            and(lit(false), sublink.clone()),
            and(cmp(CompareOp::Lt, b(), lit(-1)), sublink.clone()),
            Expr::Case {
                branches: vec![(cmp(CompareOp::Lt, b(), lit(-1)), sublink.clone())],
                else_expr: Some(Box::new(lit(false))),
            },
        ];
        for predicate in shielded {
            let plan = PlanBuilder::scan(&db, "r")
                .unwrap()
                .select(predicate.clone())
                .build();
            assert!(Executor::new(&db)
                .execute_unoptimized(&plan)
                .unwrap()
                .is_empty());
            for (mode, ex) in modes(&db) {
                assert!(ex.execute(&plan).unwrap().is_empty(), "{mode}: {predicate}");
            }
        }
        // One live row reaches it: the same typed error everywhere.
        let plan = PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(and(
                cmp(CompareOp::Eq, b(), lit(BATCH_ROWS as i64)),
                sublink.clone(),
            ))
            .build();
        let reference = Executor::new(&db).execute_unoptimized(&plan).unwrap_err();
        assert_eq!(reference, ExecError::DivisionByZero);
        for (mode, ex) in modes(&db) {
            assert_eq!(
                ex.execute(&plan).unwrap_err(),
                reference,
                "{mode}: {sublink}"
            );
        }
    }
}

/// Memo hits and misses of every sublink subtree in a profile.
fn sublink_memo(node: &ProfileNode) -> (u64, u64) {
    let mut sum = (0, 0);
    for sub in &node.sublinks {
        sum.0 += sub.memo_hits;
        sum.1 += sub.memo_misses;
    }
    for child in node.children.iter().chain(&node.sublinks) {
        let (h, m) = sublink_memo(child);
        sum.0 += h;
        sum.1 += m;
    }
    sum
}

#[test]
fn a_retained_prepared_statement_builds_one_probe_per_parameter_vector() {
    let db = database(BATCH_ROWS + 1);
    // `a = ANY (σ_{c > $1}(s))`: uncorrelated, so a `$1` is its only key.
    let plan = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(any_sublink(
            col("a"),
            CompareOp::Eq,
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(cmp(CompareOp::Gt, col("c"), Expr::Param(0)))
                .build(),
        ))
        .build();
    let ex = Executor::new(&db).with_memo_retention(true);
    let compiled = ex.prepare(&plan).unwrap();
    let mut seen = std::collections::HashSet::new();
    // c > -1 keeps all six rows of s, c > 5 keeps four.
    for p in [-1i64, -1, 5, -1, 5, 5] {
        ex.bind_params(vec![Value::Int(p)]);
        let before = ex.stats().quantifier_comparisons;
        let (got, profile) = ex.execute_profiled(&compiled).unwrap();
        let fresh = seen.insert(p);
        // Two batches read the probe: the first builds it (one miss) or
        // finds it (a hit), the second finds it.
        assert_eq!(
            sublink_memo(&profile.root),
            if fresh { (1, 1) } else { (2, 0) },
            "$1 = {p}"
        );
        let built = ex.stats().quantifier_comparisons - before;
        assert_eq!(
            built,
            if !fresh {
                0
            } else if p < 0 {
                6
            } else {
                4
            }
        );
        let reference = Executor::new(&db);
        reference.bind_params(vec![Value::Int(p)]);
        let expected = reference.execute_unoptimized(&plan).unwrap();
        assert_eq!(got.tuples(), expected.tuples(), "$1 = {p}");
    }
}

/// `b <= ANY (σ_{c >= r.a}(sn))`: correlated on `a`, so one probe per
/// distinct `a` (21 of them, NULL included).
fn correlated(db: &Database) -> Plan {
    PlanBuilder::scan(db, "r")
        .unwrap()
        .project(vec![
            ProjectItem::column("a"),
            ProjectItem::new(
                any_sublink(
                    col("b"),
                    CompareOp::Le,
                    PlanBuilder::scan(db, "sn")
                        .unwrap()
                        .select(cmp(CompareOp::Ge, col("c"), qcol("r", "a")))
                        .build(),
                ),
                "v",
            ),
        ])
        .build()
}

#[test]
fn a_budget_that_refuses_the_probe_still_answers_correctly() {
    let db = database(BATCH_ROWS + 1);
    let [uncorrelated, _] = shapes(&db, all_sublink(col("a"), CompareOp::Lt, scan(&db, "sn")));
    for (label, plan) in [
        ("uncorrelated", uncorrelated),
        ("correlated", correlated(&db)),
    ] {
        let reference = Executor::new(&db).execute_unoptimized(&plan).unwrap();
        let unbudgeted = Executor::new(&db);
        assert_eq!(
            unbudgeted.execute(&plan).unwrap().tuples(),
            reference.tuples()
        );
        // One byte: every memo insert is refused and nothing is kept, so
        // the summary is rebuilt — per batch, or per row — and nothing else
        // changes.
        let starved = Executor::new(&db).with_memory_budget(Some(1));
        assert_eq!(
            starved.execute(&plan).unwrap().tuples(),
            reference.tuples(),
            "{label}"
        );
        assert!(
            starved.stats().quantifier_comparisons > unbudgeted.stats().quantifier_comparisons,
            "{label}: {} vs {}",
            starved.stats().quantifier_comparisons,
            unbudgeted.stats().quantifier_comparisons
        );
    }
}

#[test]
fn executors_sharing_a_memo_hit_each_others_probes() {
    let db = database(BATCH_ROWS + 1);
    let [uncorrelated, _] = shapes(&db, any_sublink(col("a"), CompareOp::Neq, scan(&db, "s")));
    for (label, plan) in [
        ("uncorrelated", uncorrelated),
        ("correlated", correlated(&db)),
    ] {
        // The memo is the compiled plan's: a second executor running the
        // same plan reads the probes the first one built.
        let warm = Executor::new(&db);
        let compiled = warm.prepare(&plan).unwrap();
        let first = warm.execute_compiled(&compiled).unwrap();
        assert!(warm.stats().quantifier_comparisons > 0);
        assert!(warm.stats().memo_misses > 0, "{label}");

        let other = Executor::new(&db);
        let second = other.execute_compiled(&compiled).unwrap();
        assert_eq!(second.tuples(), first.tuples());
        assert_eq!(
            other.stats().quantifier_comparisons,
            0,
            "{label}: no probe built"
        );
        assert_eq!(other.stats().memo_misses, 0, "{label}");
        assert!(other.stats().memo_hits > 0, "{label}");
        assert_eq!(
            first.tuples(),
            Executor::new(&db)
                .execute_unoptimized(&plan)
                .unwrap()
                .tuples()
        );
    }
}

fn figure3_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::from_names(&["a", "b"]).with_qualifier("r"),
            vec![
                vec![Value::Int(1), Value::Int(1)],
                vec![Value::Int(2), Value::Int(1)],
                vec![Value::Int(3), Value::Int(2)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::from_names(&["c", "d"]).with_qualifier("s"),
            vec![
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(4)],
                vec![Value::Int(4), Value::Int(5)],
            ],
        ),
    )
    .unwrap();
    db
}

const STRATEGIES: [Strategy; 5] = [
    Strategy::Gen,
    Strategy::Left,
    Strategy::Move,
    Strategy::Unn,
    Strategy::Auto,
];

#[test]
fn a_quantified_subquery_of_two_columns_is_refused_in_sql() {
    let db = figure3_db();
    for strategy in STRATEGIES {
        let session = Session::with_config(
            &db,
            SessionConfig {
                strategy,
                ..SessionConfig::default()
            },
        );
        for provenance in ["", "PROVENANCE "] {
            for condition in [
                "a IN (SELECT c, d FROM s)",
                "a NOT IN (SELECT c, d FROM s)",
                "a = ANY (SELECT * FROM s)",
                "a < ALL (SELECT c, d FROM s)",
                "a < ALL (SELECT c, d FROM s WHERE s.d > r.b)",
            ] {
                let sql = format!("SELECT {provenance}a FROM r WHERE {condition}");
                match session.prepare(&sql) {
                    Err(PermError::Sql(SqlError::Bind(msg))) => {
                        assert!(msg.contains("one column"), "{sql}: {msg}")
                    }
                    other => panic!("{strategy} {sql}: {:?}", other.map(|_| ())),
                }
                // One column binds (whether a strategy applies is another
                // matter).
                if provenance.is_empty() {
                    let one = sql.replace("c, d", "c").replace('*', "c");
                    session.prepare(&one).unwrap();
                }
            }
        }
    }
}

#[test]
fn a_quantified_plan_of_two_columns_gets_a_typed_error() {
    let db = figure3_db();
    for kind in KINDS {
        for op in OPS {
            let sublink = Expr::Sublink {
                kind,
                test_expr: Some(Box::new(col("a"))),
                op: Some(op),
                plan: Box::new(scan(&db, "s")),
            };
            let plan = PlanBuilder::scan(&db, "r")
                .unwrap()
                .select(sublink.clone())
                .build();
            let arity = ExecError::QuantifiedSublinkArity(2);
            // Both execution paths, every mode.
            assert_eq!(
                Executor::new(&db).execute_unoptimized(&plan),
                Err(arity.clone())
            );
            for (mode, ex) in modes(&db) {
                assert_eq!(ex.execute(&plan), Err(arity.clone()), "{mode}: {sublink}");
            }
            // Through a session: the plain query at execution, the
            // provenance query under every strategy at preparation.
            for strategy in STRATEGIES {
                let session = Session::with_config(
                    &db,
                    SessionConfig {
                        strategy,
                        ..SessionConfig::default()
                    },
                );
                let prepared = session.prepare_plan(&plan).unwrap();
                match session.execute(&prepared, &[]) {
                    Err(PermError::Exec(e)) => assert_eq!(e, arity),
                    other => panic!("{strategy} {sublink}: {:?}", other.map(|_| ())),
                }
                match session.prepare_provenance_plan(&plan) {
                    Err(PermError::Provenance(ProvenanceError::Algebra(msg))) => {
                        assert!(msg.contains("one column"), "{strategy} {sublink}: {msg}")
                    }
                    other => panic!("{strategy} {sublink}: {:?}", other.map(|_| ())),
                }
            }
        }
    }
}
