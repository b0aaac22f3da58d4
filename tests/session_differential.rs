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
fn same_rows(sql: &str, on: &Relation, off: &Relation) -> bool {
    if sql.contains("ORDER BY") {
        on.tuples() == off.tuples()
    } else {
        on.bag_eq(off)
    }
}

#[test]
fn optimizer_preserves_results_and_witnesses_on_the_sql_corpus() {
    // Seventh differential mode, SQL half: the optimizer must be invisible in
    // both observables — plain results and provenance witnesses, as bags and
    // where the query orders them as sequences — on the full 80-seed corpus.
    let db = corpus_database();
    let engine = Engine::new(db);
    let on = engine.session();
    let off = engine.session_with(SessionConfig {
        optimize: false,
        ..SessionConfig::default()
    });
    assert!(on.config().optimize, "optimizer should default on");
    let mut checked = 0usize;
    for seed in 0..80u64 {
        let case = corpus_case(seed);
        let sql = &case.sql;

        let p_on = on.prepare(sql).unwrap();
        let p_off = off.prepare(sql).unwrap();
        let params = case.params(p_on.param_count());
        let r_on = on
            .execute(&p_on, &params)
            .unwrap_or_else(|e| panic!("seed {seed}: optimized `{sql}` failed: {e}"));
        let r_off = off
            .execute(&p_off, &params)
            .unwrap_or_else(|e| panic!("seed {seed}: memo-only `{sql}` failed: {e}"));
        assert!(
            same_rows(sql, &r_on, &r_off),
            "seed {seed}: optimizer changed the result of `{sql}` \
             with {params:?}:\n{r_on}\nvs\n{r_off}"
        );

        // Witnesses: the full provenance relation (result columns plus
        // witness columns) must be identical in the same sense. The
        // provenance rewrite runs before the optimizer, so witnesses are
        // ordinary columns here.
        let pv_on = on.prepare_provenance(sql).unwrap();
        let pv_off = off.prepare_provenance(sql).unwrap();
        let w_on = on.execute(&pv_on, &params).unwrap();
        let w_off = off.execute(&pv_off, &params).unwrap();
        assert!(
            same_rows(sql, &w_on, &w_off),
            "seed {seed}: optimizer changed the witnesses of `{sql}` \
             with {params:?}:\n{w_on}\nvs\n{w_off}"
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
