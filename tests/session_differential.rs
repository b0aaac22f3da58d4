//! Differential testing of the `Session` API: the seeded nested-subquery
//! SQL corpus (shared with the concurrent differential test of
//! `perm-serve` via [`perm_synthetic::sqlgen`]) must produce bag-identical
//! results through `Session::prepare`/`execute`, the streaming cursor, the
//! compiled `Executor::execute` path and the reference interpreter
//! `Executor::execute_unoptimized`.

use perm::prelude::*;
use perm_synthetic::sqlgen::{corpus_case, corpus_database};

#[test]
fn session_agrees_with_both_executor_paths_on_random_queries() {
    let db = corpus_database();
    let engine = Engine::new(db);
    let session = engine.session();
    let mut checked = 0usize;
    for seed in 0..80u64 {
        let case = corpus_case(seed);
        let sql = &case.sql;
        let prepared = session
            .prepare(sql)
            .unwrap_or_else(|e| panic!("seed {seed}: failed to prepare `{sql}`: {e}"));
        let params = case.params(prepared.param_count());

        let via_session = session
            .execute(&prepared, &params)
            .unwrap_or_else(|e| panic!("seed {seed}: `{sql}` with {params:?} failed: {e}"));
        let via_cursor = session
            .rows(&prepared, &params)
            .unwrap()
            .into_relation()
            .unwrap_or_else(|e| panic!("seed {seed}: cursor over `{sql}` failed: {e}"));

        // The direct executor paths, on the same bound plan.
        let (plan, _) = perm::sql::compile(engine.database(), sql).unwrap();
        let compiled_ex = Executor::new(engine.database());
        compiled_ex.bind_params(params.clone());
        let via_compiled = compiled_ex.execute(&plan).unwrap();
        let interp_ex = Executor::new(engine.database());
        interp_ex.bind_params(params.clone());
        let via_interpreter = interp_ex.execute_unoptimized(&plan).unwrap();

        for (label, other) in [
            ("cursor", &via_cursor),
            ("compiled executor", &via_compiled),
            ("interpreter", &via_interpreter),
        ] {
            assert!(
                via_session.bag_eq(other),
                "seed {seed}: session disagrees with {label} on `{sql}` \
                 with {params:?}:\n{via_session}\nvs\n{other}"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 80);
}

/// What the optimizer may not change: the bag of rows, and under an
/// `ORDER BY` their sequence — ties included, a `LIMIT` cuts through them.
fn same_rows(sql: &str, optimized: &Relation, reference: &Relation) -> bool {
    if sql.contains("ORDER BY") {
        optimized.tuples() == reference.tuples()
    } else {
        optimized.bag_eq(reference)
    }
}

/// The reference interpreter over a statement's plan as bound (before the
/// optimizer), with the same `$n` binding.
fn interpreted(db: &Database, prepared: &Prepared, params: &[Value]) -> Relation {
    let ex = Executor::new(db);
    ex.bind_params(params.to_vec());
    ex.execute_unoptimized(prepared.bound_plan()).unwrap()
}

#[test]
fn optimizer_preserves_results_and_witnesses_on_the_sql_corpus() {
    // Seventh differential mode, SQL half: the optimizer must be invisible in
    // both observables — plain results and provenance witnesses, as bags and
    // where the query orders them as sequences — on the full 80-seed corpus.
    // Every optimized session result is checked against the interpreter on
    // the statement's bound plan, the reference every other suite uses.
    let db = corpus_database();
    let engine = Engine::new(db);
    let session = engine.session();
    let mut checked = 0usize;
    for seed in 0..80u64 {
        let case = corpus_case(seed);
        let sql = &case.sql;

        let prepared = session.prepare(sql).unwrap();
        let params = case.params(prepared.param_count());
        let optimized = session
            .execute(&prepared, &params)
            .unwrap_or_else(|e| panic!("seed {seed}: optimized `{sql}` failed: {e}"));
        let reference = interpreted(engine.database(), &prepared, &params);
        assert!(
            same_rows(sql, &optimized, &reference),
            "seed {seed}: optimizer changed the result of `{sql}` \
             with {params:?}:\n{optimized}\nvs\n{reference}"
        );

        // Witnesses: the full provenance relation (result columns plus
        // witness columns) must be identical in the same sense. The
        // provenance rewrite runs before the optimizer, so witnesses are
        // ordinary columns here.
        let provenance = session.prepare_provenance(sql).unwrap();
        let witnesses = session.execute(&provenance, &params).unwrap();
        let reference = interpreted(engine.database(), &provenance, &params);
        assert!(
            same_rows(sql, &witnesses, &reference),
            "seed {seed}: optimizer changed the witnesses of `{sql}` \
             with {params:?}:\n{witnesses}\nvs\n{reference}"
        );
        checked += 1;
    }
    assert_eq!(checked, 80);
}

#[test]
fn engine_session_provenance_agrees_with_a_transient_session() {
    // An engine session (shared plan cache, the engine's configuration)
    // against a one-shot `Session` over the bare database with the strategy
    // spelled out: same result, on a seeded parameter-free subset.
    let db = corpus_database();
    let engine = Engine::new(db);
    let mut checked = 0usize;
    for seed in (0..200u64).filter(|&s| !corpus_case(s).sql.contains('$')) {
        let sql = corpus_case(seed).sql;
        let session = engine.session();
        let prepared = session.prepare_provenance(&sql).unwrap();
        let cached = session.execute(&prepared, &[]).unwrap();
        let transient = Session::with_config(
            engine.database(),
            SessionConfig {
                strategy: Strategy::Auto,
                ..SessionConfig::default()
            },
        );
        let one_shot = transient
            .execute(&transient.prepare_provenance(&sql).unwrap(), &[])
            .unwrap();
        assert!(
            cached.bag_eq(&one_shot),
            "seed {seed}: engine session and transient session disagree on `{sql}`"
        );
        checked += 1;
        if checked == 10 {
            break;
        }
    }
    assert_eq!(checked, 10);
}

#[test]
fn operator_faults_fire_alike_on_rows_and_execute() {
    // Every operator invocation raises one `FaultSite::Operator` event, on
    // the streamed spine of a cursor as on the materialising path: a fault
    // at the n-th event fails both the same way, after the same events.
    use perm::{ExecError, FaultKind, FaultPlan, FaultSite, PermError};
    let mut db = Database::new();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::from_names(&["a"]).with_qualifier("t"),
            (0..100).map(|i| vec![Value::Int(i)]).collect(),
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let sql = "SELECT a + 1 AS b FROM t WHERE a >= 0";
    for n in 1..=3 {
        let run = |streamed: bool| {
            let plan = FaultPlan::new(FaultKind::Cancel, FaultSite::Operator, n);
            let session = engine.session_with(SessionConfig {
                fault_plan: Some(plan.clone()),
                ..SessionConfig::default()
            });
            let prepared = session.prepare(sql).unwrap();
            let result = match streamed {
                true => session
                    .rows(&prepared, &[])
                    .map_err(|e| match e {
                        PermError::Exec(e) => e,
                        other => panic!("{other}"),
                    })
                    .and_then(|rows| rows.into_relation()),
                false => session.execute(&prepared, &[]).map_err(|e| match e {
                    PermError::Exec(e) => e,
                    other => panic!("{other}"),
                }),
            };
            (result.map(|r| r.len()), plan.events_seen())
        };
        let (executed, streamed) = (run(false), run(true));
        assert!(
            matches!(executed.0, Err(ExecError::Cancelled { .. })),
            "n = {n}: {executed:?}"
        );
        assert_eq!(streamed, executed, "n = {n}");
        assert_eq!(executed.1, n, "n = {n}");
    }
}
