//! `$n` is bound before the first operator runs. Three consequences, one
//! test each: (a) every execution entry refuses a vector that leaves a
//! referenced `$n` unbound, with nothing evaluated — also where lazy
//! evaluation used to let it slip past an empty input or a short circuit;
//! (b) the optimizer therefore treats `$n` as the constant it will be, and
//! the prepared provenance statements of the benchmark's `serve_mix` get
//! the join-shaped plans their literal twins get; (c) those plans agree
//! with the reference interpreter on the plan as Gen wrote it, for every
//! binding, out of one cached `Prepared`.

use perm::prelude::*;
use perm::{ExecError, PermError};
use perm_algebra::builder::{and, cmp};
use perm_algebra::{CompareOp, Expr, Plan};
use perm_serve::{ConcurrentEngine, Request};
use std::sync::Arc;

/// The `serve_mix` database: 100×50, `r1.a = r2.a` with real matches.
fn serve_mix_db() -> Database {
    perm_synthetic::build_matching_database(100, 50, 42)
}

/// The three provenance statements `serve_mix` serves.
const SERVED: [&str; 3] = [
    "SELECT PROVENANCE a, b FROM r1 WHERE EXISTS \
     (SELECT * FROM r2 WHERE r2.g = r1.g AND r2.b > $1)",
    "SELECT PROVENANCE a, b FROM r1 WHERE g IN (SELECT g FROM r2 WHERE b > $1)",
    "SELECT PROVENANCE a, b FROM r1 WHERE b < \
     (SELECT avg(b) FROM r2 WHERE r2.g = r1.g AND r2.b > $1)",
];

/// `n` values of `r2.b` stepping through its 5 % – 90 % quantiles.
fn quantiles(db: &Database, n: usize) -> Vec<i64> {
    let mut b: Vec<i64> = db
        .table("r2")
        .unwrap()
        .tuples()
        .iter()
        .map(|t| t.get(1).as_i64().unwrap())
        .collect();
    b.sort_unstable();
    (0..n)
        .map(|i| {
            let q = 0.05 + 0.85 * i as f64 / n as f64;
            b[((b.len() - 1) as f64 * q).round() as usize]
        })
        .collect()
}

fn is_param_error(result: Result<impl Sized, ExecError>) -> bool {
    matches!(result, Err(ExecError::Param(_)))
}

#[test]
fn every_entry_refuses_an_unbound_parameter_before_the_first_operator() {
    let db = serve_mix_db();
    let r1 = || PlanBuilder::scan(&db, "r1").unwrap();
    let below_p2 = cmp(CompareOp::Lt, col("b"), Expr::Param(1));
    // `a` is never negative: the conjunct before `$2` is FALSE on every row.
    let never = cmp(CompareOp::Lt, col("a"), lit(0));
    let plans = [
        // `$2` in plain sight, beside `$1`.
        r1().select(and(
            cmp(CompareOp::Ge, col("a"), Expr::Param(0)),
            below_p2.clone(),
        ))
        .build(),
        // Behind a FALSE short circuit, and behind an empty input: lazy
        // evaluation never reached either.
        r1().select(and(never.clone(), below_p2.clone())).build(),
        r1().select(never).select(below_p2).build(),
    ];
    for plan in &plans {
        for bound in [vec![], vec![Value::Int(0)]] {
            let ex = Executor::new(&db);
            ex.bind_params(bound);
            let compiled = ex.prepare(plan).unwrap();
            assert_eq!(compiled.param_count(), 2);
            assert!(is_param_error(ex.execute(plan)));
            assert!(is_param_error(ex.execute_compiled(&compiled)));
            assert!(is_param_error(ex.execute_profiled(&compiled)));
            assert!(is_param_error(ex.open(&compiled)));
            assert!(is_param_error(ex.open_profiled(&compiled)));
            assert!(is_param_error(ex.execute_unoptimized(plan)));
            assert_eq!(ex.operators_evaluated(), 0, "refused before any operator");
        }
        // A vector that is too long is fine: the surplus is never read.
        let ex = Executor::new(&db);
        ex.bind_params(vec![Value::Int(0), Value::Int(0)]);
        let exact = ex.execute(plan).unwrap();
        ex.bind_params(vec![Value::Int(0), Value::Int(0), Value::Int(7)]);
        assert!(ex.execute(plan).unwrap().bag_eq(&exact));
        assert!(ex.execute_unoptimized(plan).unwrap().bag_eq(&exact));
    }
}

#[test]
fn sessions_and_the_serving_pool_refuse_then_keep_serving() {
    let sql = "SELECT a, b FROM r1 WHERE a < 0 AND b < $2";
    let full = [Value::Int(0), Value::Int(0)];
    let engine = ConcurrentEngine::new(Engine::new(serve_mix_db())).with_workers(2);

    let session = engine.session();
    let prepared = session.prepare(sql).unwrap();
    assert_eq!(prepared.param_count(), 2);
    for bound in [&full[..0], &full[..1]] {
        let refused = session.execute(&prepared, bound);
        assert!(matches!(refused, Err(PermError::Param(_))), "{refused:?}");
        assert!(matches!(
            session.rows(&prepared, bound).err(),
            Some(PermError::Param(_))
        ));
    }
    assert_eq!(session.executor().operators_evaluated(), 0);
    let expected = session.execute(&prepared, &full).unwrap();
    assert!(session.executor().operators_evaluated() > 0);

    // One short request among good ones: it fails alone, as a statement
    // error and not a panic, and its worker serves what comes next.
    let requests = [
        Request::sql(sql, full.to_vec()),
        Request::sql(sql, full[..1].to_vec()),
        Request::sql(sql, full.to_vec()),
    ];
    let results = engine.serve(&requests);
    assert!(matches!(results[1], Err(PermError::Param(_))));
    for good in [&results[0], &results[2]] {
        assert!(good.as_ref().unwrap().bag_eq(&expected));
    }
    let again = engine.serve(&requests[..1]);
    assert!(again[0].as_ref().unwrap().bag_eq(&expected));
    let metrics = engine.metrics();
    assert_eq!(metrics.requests_failed, 1);
    assert_eq!(metrics.requests_served, 3);
    assert_eq!(metrics.worker_panics, 0);
}

/// `true` when `test` holds for some operator of `plan`, sublink plans
/// included.
fn any_operator(plan: &Plan, test: &impl Fn(&Plan) -> bool) -> bool {
    test(plan)
        || plan.children().into_iter().any(|c| any_operator(c, test))
        || plan.expressions().into_iter().any(|e| {
            e.sublinks().into_iter().any(|s| match s {
                Expr::Sublink { plan, .. } => any_operator(plan, test),
                _ => false,
            })
        })
}

fn scans_r1(plan: &Plan) -> bool {
    any_operator(
        plan,
        &|p| matches!(p, Plan::Scan { table, .. } if table == "r1"),
    )
}

#[test]
fn the_served_provenance_statements_get_their_literal_twins_plans() {
    let db = serve_mix_db();
    let session = Session::new(&db);
    let literal = quantiles(&db, 2)[1].to_string();
    let mut remaining = Vec::new();
    for sql in SERVED {
        let prepared = session.prepare(sql).unwrap();
        let report = prepared.optimizer_report();
        remaining.push(report.sublinks_remaining);
        // No product of `r1⁺` with anything: what is left of `T⁺ ×
        // CrossBase(Tsub)` runs as joins.
        assert!(
            !any_operator(prepared.plan(), &|p| matches!(
                p,
                Plan::CrossProduct { left, right } if scans_r1(left) || scans_r1(right)
            )),
            "{}",
            perm_algebra::display::explain(prepared.plan())
        );
        // The same rules, the same number of times, as with the literal
        // written in place of `$1`.
        let twin = session.prepare(&sql.replace("$1", &literal)).unwrap();
        assert_eq!(report, twin.optimizer_report(), "{sql}");
    }
    // The scalar statement keeps its own `b < (…)` comparison, memoised.
    assert_eq!(remaining, [0, 0, 1]);
}

#[test]
fn one_cached_plan_agrees_with_the_reference_for_every_binding() {
    let engine = Engine::new(serve_mix_db());
    let db = engine.database();
    let bindings: Vec<Value> = quantiles(db, 64)
        .into_iter()
        .map(Value::Int)
        .chain([Value::Null])
        .collect();
    let session = engine.session();
    let reference = Executor::new(db);
    for sql in SERVED {
        let first = session.prepare(sql).unwrap();
        for binding in &bindings {
            let prepared = session.prepare(sql).unwrap();
            assert!(Arc::ptr_eq(&first, &prepared), "served from the plan cache");
            let params = [binding.clone()];
            let served = session.execute(&prepared, &params).unwrap();
            reference.bind_params(params.to_vec());
            let expected = reference
                .execute_unoptimized(prepared.bound_plan())
                .unwrap();
            assert!(
                served.bag_eq(&expected),
                "`{sql}` with $1 = {binding:?}: {} rows vs {} in the reference",
                served.len(),
                expected.len()
            );
        }
    }
    let cache = engine.plan_cache_stats();
    assert_eq!((cache.entries, cache.misses), (3, 3), "{cache:?}");
}
