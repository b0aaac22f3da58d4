//! Predicate pushdown and constant folding inside sublink bodies.
//!
//! Inside a sublink body a column of an enclosing query is a constant for
//! each binding, so the optimizer's fold and pushdown rules apply there as
//! they do at the top: a correlated selection over the witness projection
//! `R⁺` that the Gen rewrite puts under a sublink's own selection moves onto
//! the scan. Every case runs the plain query and its provenance (Gen)
//! through a session and compares the outcome — result bag, witness bag, or
//! the error — with the reference interpreter on the plan before the
//! optimizer; the shape assertions say where each correlated selection ends
//! up.

use perm::prelude::*;
use perm::PermError;
use perm_algebra::builder::{eq, exists_sublink};
use perm_algebra::{Expr, Plan, ProjectItem};
use perm_tpch::{generate, sublink_queries, TpchScale};

/// `r1(a, g)`, `r2(b, g)` and `r3(c, d)`; `zero` puts a 0 among `r1.g`.
fn database(zero: bool) -> Database {
    let table = |name: &str, cols: &[&str], rows: Vec<Vec<Value>>| {
        Relation::from_rows(Schema::from_names(cols).with_qualifier(name), rows)
    };
    let mut db = Database::new();
    let r1 = (0..12i64)
        .map(|i| {
            let g = if zero && i == 5 { 0 } else { i % 4 + 1 };
            vec![Value::Int(i), Value::Int(g)]
        })
        .collect();
    let r2 = (0..20i64)
        .map(|i| vec![Value::Int(i % 9), Value::Int(i % 5)])
        .collect();
    let r3 = (0..15i64)
        .map(|i| vec![Value::Int(i % 6), Value::Int(i % 4 + 1)])
        .collect();
    db.create_table("r1", table("r1", &["a", "g"], r1)).unwrap();
    db.create_table("r2", table("r2", &["b", "g"], r2)).unwrap();
    db.create_table("r3", table("r3", &["c", "d"], r3)).unwrap();
    db
}

fn gen_session(db: &Database) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            strategy: Strategy::Gen,
            ..SessionConfig::default()
        },
    )
}

/// Executes `prepared` and the reference interpreter on its plan before
/// the optimizer: the same bag, or the same error.
fn assert_matches_reference(label: &str, db: &Database, session: &Session, prepared: &Prepared) {
    let reference = Executor::new(db).execute_unoptimized(prepared.bound_plan());
    let got = session.execute(prepared, &[]);
    match (got, reference) {
        (Ok(got), Ok(want)) => assert!(
            got.bag_eq(&want),
            "{label}: {} rows vs {} reference rows",
            got.len(),
            want.len()
        ),
        (Err(PermError::Exec(got)), Err(want)) => {
            assert_eq!(got.to_string(), want.to_string(), "{label}: another error")
        }
        (got, want) => panic!("{label}: {got:?} vs reference {want:?}"),
    }
}

/// The plain query and its provenance under Gen, each against the
/// reference; returns the optimized provenance plan.
fn check_sql(label: &str, db: &Database, sql: &str) -> Plan {
    let session = gen_session(db);
    let plain = session
        .prepare(sql)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_matches_reference(&format!("{label} (result)"), db, &session, &plain);
    let prov = session
        .prepare_provenance(sql)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_matches_reference(&format!("{label} (witnesses)"), db, &session, &prov);
    prov.plan().clone()
}

/// The same for a hand-built plan.
fn check_plan(label: &str, db: &Database, plan: &Plan) -> Plan {
    let session = gen_session(db);
    let plain = session.prepare_plan(plan).unwrap();
    assert_matches_reference(&format!("{label} (result)"), db, &session, &plain);
    let prov = session.prepare_provenance_plan(plan).unwrap();
    assert_matches_reference(&format!("{label} (witnesses)"), db, &session, &prov);
    prov.plan().clone()
}

/// Calls `f` on every operator of `plan` and of the sublink plans it holds
/// at any depth, with the number of sublinks around it.
fn each_operator(plan: &Plan, depth: usize, f: &mut dyn FnMut(&Plan, usize)) {
    f(plan, depth);
    plan.walk_expressions(&mut |e| {
        e.walk(&mut |e| {
            if let Expr::Sublink { plan, .. } = e {
                each_operator(plan, depth + 1, f);
            }
        })
    });
    for child in plan.inputs() {
        each_operator(child, depth, f);
    }
}

/// What sits below each selection that reads the column `name`, with the
/// selection's sublink depth: `"scan <table>"` or the operator's tag.
fn below_selections_reading(plan: &Plan, name: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    each_operator(plan, 0, &mut |p, depth| {
        if let Plan::Select { input, predicate } = p {
            if predicate.column_refs().iter().any(|(_, n)| &**n == name) {
                let below = match &**input {
                    Plan::Scan { table, .. } => format!("scan {table}"),
                    Plan::Project { .. } => "project".to_string(),
                    other => format!("{other:?}").chars().take(12).collect(),
                };
                out.push((depth, below));
            }
        }
    });
    out
}

fn explain(plan: &Plan) -> String {
    perm_algebra::display::explain(plan)
}

/// TPC-H Q17 under Gen: the body of the membership sublink filters
/// `lineitem⁺` on `l_partkey = p_partkey`, an outer reference; the
/// selection lands on the scan of `lineitem`, below the witness projection.
#[test]
fn the_q17_correlated_selection_lands_on_the_scan() {
    let db = generate(TpchScale::new(0.0001), 42);
    let sql = sublink_queries()
        .into_iter()
        .find(|t| t.id == 17)
        .expect("Q17 is a sublink template")
        .instantiate(42);
    let plan = check_sql("Q17", &db, &sql);
    let below = below_selections_reading(&plan, "p_partkey");
    assert!(
        below
            .iter()
            .all(|(depth, op)| *depth > 0 && op == "scan lineitem"),
        "{below:?}\n{}",
        explain(&plan)
    );
    // The scalar sublink of the join condition, its copies in `Csub⁺` and
    // the membership sublink's body: one correlated selection each.
    assert!(below.len() >= 4, "{below:?}\n{}", explain(&plan));
}

/// `EXISTS (σ_{x = g}(Π_{b AS x}(r2)))` over `r1`: `g` is `r1.g` in the
/// selection, whose input has no `g`, but `r2` below the projection has
/// one — pushed through, the selection would read `r2.g`. It stays.
#[test]
fn an_outer_reference_the_projection_input_would_capture_stays() {
    let db = database(false);
    let body = PlanBuilder::scan(&db, "r2")
        .unwrap()
        .project(vec![ProjectItem::new(col("b"), "x")])
        .select(eq(col("x"), col("g")))
        .build();
    let plan = PlanBuilder::scan(&db, "r1")
        .unwrap()
        .project(vec![
            ProjectItem::new(col("a"), "a"),
            ProjectItem::new(exists_sublink(body), "e"),
        ])
        .build();
    let session = gen_session(&db);
    let prepared = session.prepare_plan(&plan).unwrap();
    let below = below_selections_reading(prepared.plan(), "g");
    assert_eq!(
        below,
        [(1, "project".to_string())],
        "{}",
        explain(prepared.plan())
    );
    let witnesses = check_plan("capture", &db, &plan);
    let below = below_selections_reading(&witnesses, "g");
    let nested: Vec<_> = below.iter().filter(|(depth, _)| *depth > 0).collect();
    assert!(
        !nested.is_empty() && nested.iter().all(|(_, op)| op == "project"),
        "{below:?}\n{}",
        explain(&witnesses)
    );
}

/// A correlated conjunct that can fail (`r2.b / r1.g`) is evaluated on the
/// rows it was evaluated on: in the membership body Gen builds, it stays
/// above the witness projection `r2⁺` (the query's own body filters the
/// scan already), and with a 0 among `r1.g` both plans fail alike.
#[test]
fn a_correlated_conjunct_that_can_fail_stays() {
    let sql = "SELECT a FROM r1 WHERE a < (SELECT max(b) FROM r2 WHERE r2.b / r1.g = 1)";
    for zero in [false, true] {
        let db = database(zero);
        let plan = check_sql(&format!("division, zero = {zero}"), &db, sql);
        let below = below_selections_reading(&plan, "g");
        assert!(
            below.contains(&(1, "project".to_string())),
            "{below:?}\n{}",
            explain(&plan)
        );
    }
    // With the zero, the reference fails: the case above compared errors.
    let db = database(true);
    let session = gen_session(&db);
    let prepared = session.prepare_provenance(sql).unwrap();
    assert!(Executor::new(&db)
        .execute_unoptimized(prepared.bound_plan())
        .is_err());
}

/// `r1.a` read two sublink levels below `r1`: still an outer reference, and
/// the innermost selection lands on the scan of `r3`.
#[test]
fn an_outer_reference_two_levels_up_reaches_the_scan() {
    let db = database(false);
    let sql = "SELECT a FROM r1 WHERE a < (SELECT max(b) FROM r2 WHERE r2.g = r1.g \
               AND EXISTS (SELECT * FROM r3 WHERE r3.c = r1.a AND r3.d = r2.g))";
    let plan = check_sql("two levels", &db, sql);
    let below = below_selections_reading(&plan, "a");
    let innermost: Vec<_> = below.iter().filter(|(depth, _)| *depth >= 2).collect();
    assert!(
        !innermost.is_empty() && innermost.iter().all(|(_, op)| op == "scan r3"),
        "{below:?}\n{}",
        explain(&plan)
    );
}

/// A correlated conjunct over `r2 × r3` inside a sublink body sinks onto
/// the factor it reads (and through its witness projection onto the scan);
/// the two-sided conjunct stays and joins the factors.
#[test]
fn a_correlated_conjunct_over_a_product_sinks_onto_its_factor() {
    let db = database(false);
    let sql = "SELECT a FROM r1 WHERE a < \
               (SELECT max(b) FROM r2, r3 WHERE r2.g = r1.g AND r3.c = r2.b)";
    let plan = check_sql("product", &db, sql);
    let below = below_selections_reading(&plan, "g");
    let nested: Vec<_> = below.iter().filter(|(depth, _)| *depth > 0).collect();
    assert!(
        !nested.is_empty() && nested.iter().all(|(_, op)| op == "scan r2"),
        "{below:?}\n{}",
        explain(&plan)
    );
}
