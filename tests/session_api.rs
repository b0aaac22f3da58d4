//! The serving-grade API end to end: prepared statements, `$n` parameters,
//! streaming cursors, structured provenance results, memo policy and error
//! chains — everything `ISSUE 3` promises of the `Engine`/`Session` facade.

use perm::prelude::*;
use perm::{Degradation, PermError, SessionConfig};
use std::error::Error as _;

/// R(a, g) and S(c, g): a correlated workload with a low-cardinality group
/// attribute, mirroring the synthetic `q3` shape.
fn grouped_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::from_names(&["a", "g"]).with_qualifier("r"),
            (0..12)
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::from_names(&["c", "g"]).with_qualifier("s"),
            (0..9)
                .map(|i| vec![Value::Int(10 * i), Value::Int(i % 3)])
                .collect(),
        ),
    )
    .unwrap();
    db
}

#[test]
fn prepared_reexecution_does_zero_frontend_work() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s) OR a < $1")
        .unwrap();
    let after_prepare = session.stats();
    assert_eq!(after_prepare.parses, 1);
    assert_eq!(after_prepare.binds, 1);
    assert_eq!(after_prepare.rewrites, 0);
    assert_eq!(after_prepare.compiles, 1);
    assert_eq!(after_prepare.executions, 0);

    for bound in [3, 7, 11] {
        session.execute(&prepared, &[Value::Int(bound)]).unwrap();
    }
    let after = session.stats();
    // Re-execution is execution only: the front-end counters are frozen.
    assert_eq!(after.parses, 1);
    assert_eq!(after.binds, 1);
    assert_eq!(after.rewrites, 0);
    assert_eq!(after.compiles, 1, "counters must show one compile total");
    assert_eq!(after.executions, 3);
}

#[test]
fn parameters_change_results_without_recompiling() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session.prepare("SELECT a FROM r WHERE a < $1").unwrap();
    assert_eq!(prepared.param_count(), 1);
    assert_eq!(
        session.execute(&prepared, &[Value::Int(3)]).unwrap().len(),
        3
    );
    assert_eq!(
        session
            .execute(&prepared, &[Value::Int(100)])
            .unwrap()
            .len(),
        12
    );
    // Wrong arity is a statement error, not a silent NULL.
    assert!(matches!(
        session.execute(&prepared, &[]),
        Err(PermError::Param(_))
    ));
    assert!(matches!(
        session.execute(&prepared, &[Value::Int(1), Value::Int(2)]),
        Err(PermError::Param(_))
    ));
    assert_eq!(session.stats().compiles, 1);
}

#[test]
fn rows_cursor_streams_limit_without_full_materialisation() {
    // Row 0 divides cleanly; the last row would divide by zero. A LIMIT 1
    // must never evaluate it — on the streaming cursor *and* on the
    // materialising path, which drains the batch pipeline the cursor pulls,
    // where a LIMIT with no breaker above it is lazy. Without the limit the
    // poisoned row is reached and the statement fails.
    let mut db = Database::new();
    db.create_table(
        "t",
        Relation::from_rows(
            Schema::from_names(&["x"]).with_qualifier("t"),
            vec![vec![Value::Int(5)], vec![Value::Int(0)]],
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT 10 / x AS y FROM t LIMIT 1")
        .unwrap();

    let materialised = session.execute(&prepared, &[]).unwrap();
    assert_eq!(
        materialised.len(),
        1,
        "execute must match Rows and never evaluate the tail"
    );
    assert_eq!(materialised.tuples()[0].get(0), &Value::Int(2));

    let unlimited = session.prepare("SELECT 10 / x AS y FROM t").unwrap();
    assert!(
        matches!(session.execute(&unlimited, &[]), Err(PermError::Exec(_))),
        "without the limit the poisoned row is reached"
    );

    let tuples: Vec<Tuple> = session
        .rows(&prepared, &[])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(tuples.len(), 1);
    assert_eq!(tuples[0].get(0), &Value::Int(2));
}

#[test]
fn acceptance_correlated_provenance_with_parameter_three_bindings() {
    // The ISSUE 3 acceptance bar: a correlated `SELECT PROVENANCE` query
    // with a `$1` parameter, prepared once, executed with three different
    // bindings, returning correct per-binding witnesses via
    // `ProvenanceRows`, with one compile total.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare(
            "SELECT PROVENANCE a FROM r \
             WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g AND s.c > $1)",
        )
        .unwrap();
    assert!(prepared.descriptor().is_some());
    assert_eq!(prepared.param_count(), 1);

    for bound in [-1i64, 30, 75] {
        let rows = session
            .provenance_rows(&prepared, &[Value::Int(bound)])
            .unwrap();
        // Reference semantics, computed directly: r-rows whose group has an
        // s.c above the binding.
        let db = engine.database();
        let s = db.table("s").unwrap();
        let r = db.table("r").unwrap();
        let surviving: Vec<i64> = r
            .tuples()
            .iter()
            .filter(|rt| {
                s.tuples()
                    .iter()
                    .any(|st| st.get(1) == rt.get(1) && st.get(0).as_i64().unwrap() > bound)
            })
            .map(|rt| rt.get(0).as_i64().unwrap())
            .collect();
        let mut seen: Vec<i64> = rows
            .iter()
            .map(|row| row.output()[0].as_i64().unwrap())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, surviving, "wrong output set for $1 = {bound}");

        // Witness structure: every row carries an `r` witness equal to its
        // own tuple and an `s` witness that satisfies the correlated,
        // parameterized predicate for THIS binding.
        for row in rows.iter() {
            let a = row.output()[0].as_i64().unwrap();
            let g = a % 3;
            let r_witness = row.witnesses().find(|w| w.table == "r").unwrap();
            assert_eq!(r_witness.tuple(), Some(&[Value::Int(a), Value::Int(g)][..]));
            let s_witness = row.witnesses().find(|w| w.table == "s").unwrap();
            let s_values = s_witness
                .tuple()
                .expect("a surviving row must have an s witness");
            assert_eq!(s_values[1], Value::Int(g), "witness from the right group");
            assert!(
                s_values[0].as_i64().unwrap() > bound,
                "witness must satisfy the $1 = {bound} binding, got {:?}",
                s_values
            );
        }
    }
    assert_eq!(session.stats().compiles, 1);
    assert_eq!(session.stats().rewrites, 1);
}

#[test]
fn prepared_memo_retention_is_policy_driven() {
    let db = grouped_db();
    let engine = Engine::new(db);

    // Default policy: memos are retained across executions of one prepared
    // statement, so the parameter-independent sublink runs once total.
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let first = session.executor().operators_evaluated();
    session.execute(&prepared, &[]).unwrap();
    let second = session.executor().operators_evaluated() - first;
    // First run: project + select + scan r + (project + scan s) = 5.
    // Second run: the sublink is a memo hit — the outer three only.
    assert_eq!(first, 5);
    assert_eq!(second, 3, "retained memo must skip the sublink re-run");

    // retain_memo = false keeps the ad-hoc clearing semantics.
    let session = engine.session_with(SessionConfig {
        retain_memo: false,
        ..SessionConfig::default()
    });
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let first = session.executor().operators_evaluated();
    session.execute(&prepared, &[]).unwrap();
    let second = session.executor().operators_evaluated() - first;
    assert_eq!(first, 5);
    assert_eq!(second, 5, "clearing policy must re-run the sublink");
}

/// A correlated scalar comparison the optimizer keeps as a sublink: one
/// memo entry per `g` group (3). Every `a` is at most its group's `max(c)`;
/// against an empty `s` the max is NULL and no row survives.
const MAX_PER_GROUP_SQL: &str = "SELECT a FROM r WHERE a <= (SELECT max(c) FROM s WHERE s.g = r.g)";

#[test]
fn ad_hoc_run_leaves_a_prepared_statements_memo_warm() {
    // A statement's memo belongs to the statement: `Session::run` of an
    // unrelated text (itself a memo user) executes another statement and
    // touches no other memo, so a warmed prepared statement re-executes
    // without evaluating its sublink.
    let engine = Engine::new(grouped_db());
    let session = engine.session();
    let prepared = session.prepare(MAX_PER_GROUP_SQL).unwrap();
    assert!(prepared.optimizer_report().sublinks_remaining >= 1);
    session.execute(&prepared, &[]).unwrap();
    assert_eq!(session.stats().memo_misses, 3, "one miss per group");
    session.execute(&prepared, &[]).unwrap();
    session
        .run("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    let before = session.stats();
    let rows = session.execute(&prepared, &[]).unwrap();
    let after = session.stats();
    assert_eq!(rows.len(), 12);
    assert_eq!(
        after.memo_misses - before.memo_misses,
        0,
        "run() must leave the prepared statement's memo warm"
    );
    assert!(after.memo_hits > before.memo_hits);
}

#[test]
fn sessions_of_one_engine_share_a_cached_statements_memo() {
    let engine = Engine::new(grouped_db());
    let first = engine.session();
    let prepared = first.prepare(MAX_PER_GROUP_SQL).unwrap();
    let expected = first.execute(&prepared, &[]).unwrap();
    assert!(first.stats().memo_misses > 0, "the first session computes");

    // The second session prepares the same text: a plan-cache hit, the same
    // statement, and every binding already in its memo.
    let second = engine.session();
    let cached = second.prepare(MAX_PER_GROUP_SQL).unwrap();
    assert!(std::sync::Arc::ptr_eq(&prepared, &cached));
    let rows = second.execute(&cached, &[]).unwrap();
    assert!(rows.bag_eq(&expected));
    let stats = second.stats();
    assert_eq!(
        stats.memo_misses, 0,
        "the second session evaluates no sublink"
    );
    assert!(stats.memo_hits > 0);
}

#[test]
fn a_statement_run_over_two_databases_never_serves_the_other_ones_entries() {
    // Warm a statement over the full data, then execute the same
    // `Arc<Prepared>` over a copy whose `s` is empty: the memo keys carry the
    // database version, so the copy misses and computes its own answer.
    let engine = Engine::new(grouped_db());
    let session = engine.session();
    let prepared = session.prepare(MAX_PER_GROUP_SQL).unwrap();
    assert!(prepared.optimizer_report().sublinks_remaining >= 1);
    assert_eq!(session.execute(&prepared, &[]).unwrap().len(), 12);

    let mut emptied = engine.database().clone();
    emptied.create_or_replace_table(
        "s",
        Relation::from_rows(Schema::from_names(&["c", "g"]).with_qualifier("s"), vec![]),
    );
    let other = Session::new(&emptied);
    let rows = other.execute(&prepared, &[]).unwrap();
    assert!(
        rows.is_empty(),
        "the full database's entries were served: {rows}"
    );
    assert_eq!(other.stats().memo_misses, 3, "every group is computed anew");

    // The full database's entries still serve it.
    let before = session.stats();
    assert_eq!(session.execute(&prepared, &[]).unwrap().len(), 12);
    assert_eq!(session.stats().memo_misses, before.memo_misses);
}

#[test]
fn parameter_values_participate_in_retained_memo_keys() {
    // A parameterized (but uncorrelated) sublink: retention may reuse the
    // result for a repeated binding but MUST recompute for a new one.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c / 10 FROM s WHERE c > $1)")
        .unwrap();

    let run = |bound: i64| {
        let before = session.executor().operators_evaluated();
        let rel = session.execute(&prepared, &[Value::Int(bound)]).unwrap();
        (session.executor().operators_evaluated() - before, rel)
    };
    let (ops_a, res_a) = run(30);
    let (ops_b, res_b) = run(30); // same binding: memo hit
    let (ops_c, res_c) = run(-1); // new binding: sublink must re-run
    assert_eq!(ops_a, 3 + 3, "outer three ops + 3-op sublink");
    assert_eq!(ops_b, 3, "repeated binding reuses the memo entry");
    assert_eq!(ops_c, 3 + 3, "new binding must not reuse the old result");
    assert!(res_a.bag_eq(&res_b));
    assert!(!res_a.bag_eq(&res_c), "different binding, different result");
}

#[test]
fn memo_capacity_bounds_are_configurable_and_correct() {
    // A capacity of 1 thrashes on a 3-group correlated query but must stay
    // correct; unbounded agrees with it.
    let db = grouped_db();
    let engine = Engine::new(db);
    // Memo-path test: a correlated `ALL` is a shape the optimizer keeps as
    // a sublink, so it goes through the memo.
    let sql = "SELECT a FROM r WHERE a < ALL (SELECT c FROM s WHERE s.g = r.g)";

    let bounded = engine.session_with(SessionConfig {
        memo_capacity: Some(1),
        ..SessionConfig::default()
    });
    let unbounded = engine.session();
    let p_bounded = bounded.prepare(sql).unwrap();
    let p_unbounded = unbounded.prepare(sql).unwrap();
    // A rule that decorrelates this shape must fail here rather than
    // silently bypass the memo under test.
    assert!(p_bounded.optimizer_report().sublinks_remaining >= 1);
    let a = bounded.execute(&p_bounded, &[]).unwrap();
    let b = unbounded.execute(&p_unbounded, &[]).unwrap();
    assert!(a.bag_eq(&b));
    // The capacity-1 session had to re-execute evicted bindings.
    assert!(
        bounded.executor().operators_evaluated() > unbounded.executor().operators_evaluated(),
        "a thrashing LRU must do strictly more operator work"
    );
}

#[test]
fn tracer_config_subsumes_the_reference_path() {
    // The closed-form tracer is the oracle the rewrites are checked
    // against: traced over the plan as bound, it must produce the bag the
    // session's rewrite → optimize → compile pipeline returns, on a
    // correlated `EXISTS` (which the optimizer turns into a semi join).
    use perm::core::tracer::Tracer;
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let sql = "SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)";
    let (bound, provenance) = perm::sql::compile(engine.database(), sql).unwrap();
    assert!(provenance);
    let traced = Tracer::new(engine.database()).trace(&bound).unwrap();
    let prepared = session.prepare(sql).unwrap();
    // The prepared schema describes what the oracle returns — original
    // attributes followed by the provenance attributes.
    assert_eq!(prepared.schema().names(), traced.schema().names());
    let rewritten = session.execute(&prepared, &[]).unwrap();
    assert!(
        traced.bag_eq(&rewritten),
        "tracer and rewrite must agree:\n{traced}\nvs\n{rewritten}"
    );
    // The structured view splits exactly those rows.
    let rows = session.provenance_rows(&prepared, &[]).unwrap();
    assert_eq!(rows.len(), traced.len());
}

#[test]
fn tracer_numbers_every_position_of_a_shared_subtree() {
    // `BETWEEN` and an `IN` list repeat their operand, and a cloned plan
    // shares its children, so one sublink plan or scan can sit at several
    // positions of a tree. The tracer must number each position's relation
    // accesses as the Gen rewrite does: once per position, in walk order.
    use perm::algebra::builder::scalar_sublink;
    use perm::algebra::builder::{and, avg, between, eq, exists_sublink, in_list, max};
    use perm::algebra::{Plan, ProjectItem};
    use perm::core::tracer::Tracer;
    let db = grouped_db();
    let same_group = || {
        PlanBuilder::scan(&db, "s")
            .unwrap()
            .select(eq(qcol("s", "g"), qcol("r", "g")))
    };
    let of_r_where = |predicate| {
        PlanBuilder::scan(&db, "r")
            .unwrap()
            .select(and(predicate, exists_sublink(same_group().build())))
            .project(vec![ProjectItem::column("a")])
            .build()
    };
    let group_avg = same_group()
        .aggregate(vec![], vec![avg(qcol("s", "c"), "m")])
        .build();
    let group_max = same_group()
        .aggregate(vec![], vec![max(qcol("s", "c"), "m")])
        .build();
    let ones = PlanBuilder::scan(&db, "r")
        .unwrap()
        .select(eq(qcol("r", "g"), lit(1)))
        .build();
    // Both sides share the scan below `ones`.
    let renamed = PlanBuilder::from_plan(ones.clone())
        .project(vec![ProjectItem::new(col("a"), "b")])
        .build();
    let self_join = PlanBuilder::from_plan(ones)
        .cross(renamed)
        .select(exists_sublink(
            PlanBuilder::scan(&db, "s")
                .unwrap()
                .select(eq(qcol("s", "c"), lit(40)))
                .build(),
        ))
        .project(vec![ProjectItem::column("a"), ProjectItem::column("b")])
        .build();
    let sql = |text: &str| -> Plan { perm::sql::compile(&db, text).unwrap().0 };
    let plans = [
        (
            "between",
            of_r_where(between(scalar_sublink(group_avg), lit(35), lit(60))),
        ),
        (
            "in list",
            of_r_where(in_list(
                scalar_sublink(group_max),
                [lit(60), lit(80), lit(5)],
            )),
        ),
        ("cloned self-join", self_join),
        (
            "sql between",
            sql("SELECT PROVENANCE a FROM r \
                 WHERE (SELECT avg(c) FROM s WHERE s.g = r.g) BETWEEN 35 AND 60 \
                 AND EXISTS (SELECT * FROM s WHERE s.g = r.g)"),
        ),
        (
            "sql in list",
            sql("SELECT PROVENANCE a FROM r \
                 WHERE (SELECT max(c) FROM s WHERE s.g = r.g) IN (60, 80, 5) \
                 AND EXISTS (SELECT * FROM s WHERE s.g = r.g)"),
        ),
    ];

    let session = Session::with_config(
        &db,
        SessionConfig {
            strategy: Strategy::Gen,
            ..SessionConfig::default()
        },
    );
    for (label, plan) in &plans {
        let traced = Tracer::new(&db).trace(plan).unwrap();
        let prepared = session.prepare_provenance_plan(plan).unwrap();
        let rewritten = session.execute(&prepared, &[]).unwrap();
        assert_eq!(
            traced.schema().names(),
            rewritten.schema().names(),
            "{label}: witness columns"
        );
        assert!(!traced.is_empty(), "{label}: the query selects rows");
        assert!(
            traced.bag_eq(&rewritten),
            "{label}: tracer and Gen rewrite must agree:\n{traced}\nvs\n{rewritten}"
        );
    }
}

#[test]
fn error_chains_surface_the_underlying_cause() {
    let db = grouped_db();
    let session = Session::new(&db);

    // Lexical error: the byte position must survive to the top-level
    // Display and the SqlError must be reachable via source().
    let err = session.prepare("SELECT 'oops").unwrap_err();
    let display = err.to_string();
    assert!(display.contains("sql error"), "{display}");
    assert!(display.contains("byte 7"), "{display}");
    let source = err.source().expect("PermError::Sql must have a source");
    assert!(source.to_string().contains("unterminated"));

    // Execution error: PermError -> ExecError -> StorageError, three levels.
    let prepared = session.prepare("SELECT missing_column FROM r").unwrap();
    let err = session.execute(&prepared, &[]).unwrap_err();
    assert!(err.to_string().contains("execution error"), "{err}");
    let exec = err.source().expect("PermError::Exec must have a source");
    let storage = exec
        .source()
        .expect("ExecError::Storage must chain to the StorageError");
    assert!(storage.to_string().contains("missing_column"));
}

#[test]
fn provenance_rows_split_output_and_witness_groups() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT PROVENANCE a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    let rows = session.provenance_rows(&prepared, &[]).unwrap();
    assert_eq!(rows.output_schema().names(), ["a"].map(Name::from));
    let descriptor = prepared.descriptor().unwrap();
    assert_eq!(descriptor.len(), 2, "two base-relation accesses: r and s");
    for row in rows.iter() {
        let tables: Vec<&str> = row.witnesses().map(|w| w.table).collect();
        assert_eq!(tables, vec!["r", "s"]);
        assert_eq!(row.witness(0).unwrap().tuple().unwrap().len(), 2);
    }
    // A plain statement refuses the provenance view.
    let plain = session.prepare("SELECT a FROM r").unwrap();
    assert!(matches!(
        session.provenance_rows(&plain, &[]),
        Err(PermError::Param(_))
    ));
}

#[test]
fn streaming_rows_work_with_parameters_and_provenance() {
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g AND s.c > $1)")
        .unwrap();
    let streamed: Vec<Tuple> = session
        .rows(&prepared, &[Value::Int(30)])
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let materialised = session.execute(&prepared, &[Value::Int(30)]).unwrap();
    assert_eq!(streamed.len(), materialised.len());
}

#[test]
fn plan_cache_amortizes_preparation_across_sessions() {
    let engine = Engine::new(grouped_db());
    let sql = "SELECT a FROM r WHERE a IN (SELECT c FROM s WHERE s.g = r.g)";
    let first = engine.session();
    let stmt_a = first.prepare(sql).unwrap();
    assert_eq!(first.stats().plan_cache_misses, 1);
    assert_eq!(first.stats().compiles, 1);

    // A *different* session gets the same statement back, compiling nothing.
    let second = engine.session();
    let stmt_b = second.prepare(sql).unwrap();
    assert!(std::sync::Arc::ptr_eq(&stmt_a, &stmt_b));
    let stats = second.stats();
    assert_eq!(stats.plan_cache_hits, 1);
    assert_eq!(stats.parses, 0);
    assert_eq!(stats.binds, 0);
    assert_eq!(stats.compiles, 0);
    assert_eq!(engine.plan_cache_stats().entries, 1);

    // Plain and forced-provenance preparations of one text are distinct
    // entries (they produce different plans).
    let forced = second.prepare_provenance(sql).unwrap();
    assert!(forced.descriptor().is_some());
    assert!(stmt_a.descriptor().is_none());
    assert_eq!(engine.plan_cache_stats().entries, 2);

    // Sessions opened directly over the database prepare privately.
    let detached = Session::new(engine.database());
    let stmt_c = detached.prepare(sql).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&stmt_a, &stmt_c));
    assert_eq!(engine.plan_cache_stats().entries, 2);
}

#[test]
fn plan_cache_capacity_evicts_in_insertion_order() {
    let engine = Engine::new(grouped_db()).with_plan_cache_capacity(Some(2));
    let session = engine.session();
    let texts = [
        "SELECT a FROM r WHERE a < 1",
        "SELECT a FROM r WHERE a < 2",
        "SELECT a FROM r WHERE a < 3",
    ];
    for sql in texts {
        session.prepare(sql).unwrap();
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.entries, 2, "capacity bound holds: {stats:?}");
    // The oldest text was evicted: preparing it again is a miss (and
    // re-enters, evicting the then-oldest), the newest is still a hit.
    session.prepare(texts[0]).unwrap();
    session.prepare(texts[2]).unwrap();
    let stats = session.stats();
    assert_eq!(stats.plan_cache_misses, 4);
    assert_eq!(stats.plan_cache_hits, 1);
}

#[test]
fn plan_cache_capacity_zero_caches_nothing() {
    let engine = Engine::new(grouped_db()).with_plan_cache_capacity(Some(0));
    let session = engine.session();
    let sql = "SELECT a FROM r WHERE a < 3";
    let first = session.prepare(sql).unwrap();
    let second = session.prepare(sql).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&first, &second));
    let cache = engine.plan_cache_stats();
    assert_eq!(cache.entries, 0, "{cache:?}");
    assert_eq!((cache.hits, cache.misses), (0, 2), "{cache:?}");
    let stats = session.stats();
    assert_eq!((stats.plan_cache_hits, stats.plan_cache_misses), (0, 2));
    assert_eq!(stats.compiles, 2);
    // An uncached statement still works.
    assert_eq!(session.execute(&second, &[]).unwrap().len(), 3);
}

#[test]
fn database_mut_invalidates_plan_cache_and_session_attached_shared_memos() {
    let mut engine = Engine::new(grouped_db());
    // Memo-path test: a correlated scalar sublink the optimizer keeps, so
    // it actually warms the statement's memo.
    let prepared = {
        let session = engine.session();
        let prepared = session.prepare(MAX_PER_GROUP_SQL).unwrap();
        assert!(prepared.optimizer_report().sublinks_remaining >= 1);
        let before = session.execute(&prepared, &[]).unwrap();
        assert_eq!(before.len(), 12, "every r row is within its s group");
        let warm = session.stats();
        assert!(
            warm.memo_misses > 0,
            "execution warmed the statement's memo"
        );
        session.execute(&prepared, &[]).unwrap();
        assert_eq!(session.stats().memo_misses, warm.memo_misses);
        prepared
    };
    assert_eq!(engine.plan_cache_stats().entries, 1);

    // Empty `s`: now *no* row of `r` qualifies.
    engine.database_mut().create_or_replace_table(
        "s",
        Relation::from_rows(Schema::from_names(&["c", "g"]).with_qualifier("s"), vec![]),
    );
    assert_eq!(engine.plan_cache_stats().entries, 0);

    // Re-executing the *held* statement — its memo still holds the old
    // data's entries — on a fresh session must see the new data, not stale
    // cached sublink results.
    let session = engine.session();
    let after = session.execute(&prepared, &[]).unwrap();
    assert!(after.is_empty(), "stale memo entries served: {after}");
    assert_eq!(
        session.stats().memo_misses,
        3,
        "every group is computed anew"
    );
}

#[test]
fn an_expired_deadline_does_not_poison_later_executions() {
    use perm::ExecError;
    use std::time::Duration;

    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();

    // A zero deadline cancels at the first checkpoint, before any work.
    match session.execute_with_deadline(&prepared, &[], Duration::ZERO) {
        Err(PermError::Exec(ExecError::Cancelled { .. })) => {}
        other => panic!("expected a cancellation, got {other:?}"),
    }

    // The expired token must not leak into the next, deadline-less
    // execution of the same session — deadline tokens are minted (and
    // retired) per execution.
    let rows = session
        .execute(&prepared, &[])
        .expect("the session must keep serving after a deadline expiry");
    assert_eq!(rows.len(), 12);

    // And a fresh per-call deadline gets its full budget, not the stale
    // expired one.
    let rows = session
        .execute_with_deadline(&prepared, &[], Duration::from_secs(60))
        .expect("a generous fresh deadline must not cancel");
    assert_eq!(rows.len(), 12);
}

#[test]
fn columnar_stats_count_blocks_and_fallbacks() {
    let db = grouped_db();
    let engine = Engine::new(db);

    // A sublink-free integer filter runs entirely on typed column lanes:
    // blocks are materialised, nothing falls back.
    let session = engine.session();
    let prepared = session.prepare("SELECT a FROM r WHERE a < 6").unwrap();
    let typed_rows = session.execute(&prepared, &[]).unwrap();
    assert_eq!(typed_rows.len(), 6);
    let stats = session.stats();
    assert!(
        stats.columnar_blocks > 0,
        "the typed filter must materialise at least one column block"
    );
    assert_eq!(
        stats.columnar_fallback_rows, 0,
        "an all-Int comparison has a typed kernel — no row may fall back"
    );
    assert!(stats.vectorized_batches > 0);

    // An uncorrelated sublink is fetched once per batch and its `IN`
    // answered per row from one probe: no row falls back.
    let prepared = session
        .prepare("SELECT a FROM r WHERE a IN (SELECT c FROM s)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let uncorrelated = session.stats();
    assert_eq!(uncorrelated.sublink_fallback_rows, 0);

    // A correlated one (an `ALL`, which the optimizer keeps) is looked up
    // in the statement's memo once per row, under that row's binding: each
    // of r's 12 rows is counted on *both* fallback counters (the columnar
    // one also covers mixed-type lanes).
    let prepared = session
        .prepare("SELECT a FROM r WHERE a < ALL (SELECT c FROM s WHERE s.g = r.g)")
        .unwrap();
    session.execute(&prepared, &[]).unwrap();
    let stats = session.stats();
    assert_eq!(stats.sublink_fallback_rows, 12);
    assert!(
        stats.columnar_fallback_rows - uncorrelated.columnar_fallback_rows
            >= stats.sublink_fallback_rows,
        "sublink rows are a subset of the columnar fallback rows"
    );

    // Columnar off: the same evaluator over `Values` lanes — same results,
    // no blocks, and every comparison row takes the scalar fallback.
    let values_lanes = engine.session_with(SessionConfig {
        columnar: false,
        ..SessionConfig::default()
    });
    let prepared = values_lanes.prepare("SELECT a FROM r WHERE a < 6").unwrap();
    let values_rows = values_lanes.execute(&prepared, &[]).unwrap();
    assert!(values_rows.bag_eq(&typed_rows));
    let stats = values_lanes.stats();
    assert_eq!(stats.columnar_blocks, 0);
    assert!(
        stats.columnar_fallback_rows >= 12,
        "each of r's 12 rows compares through the scalar path: {}",
        stats.columnar_fallback_rows
    );
    assert!(stats.vectorized_batches > 0, "batching itself stays on");
}

#[test]
fn stats_counters_accumulate_monotonically_over_the_session_life() {
    // The documented contract (`SessionStats` — *Counter semantics*):
    // nothing resets between executions. Totals accumulate over the
    // session's life, `peak_bytes` and `degradation` are high-water marks,
    // and `buffer_pool_capacity` is a configuration gauge — so every
    // numeric field must be non-decreasing across consecutive snapshots.
    use perm::SessionStats;
    type Counter = (&'static str, fn(&SessionStats) -> u64);
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let counters: &[Counter] = &[
        ("parses", |s| s.parses),
        ("binds", |s| s.binds),
        ("rewrites", |s| s.rewrites),
        ("optimizer_rules_fired", |s| s.optimizer_rules_fired),
        ("sublinks_decorrelated", |s| s.sublinks_decorrelated),
        ("compiles", |s| s.compiles),
        ("executions", |s| s.executions),
        ("plan_cache_hits", |s| s.plan_cache_hits),
        ("plan_cache_misses", |s| s.plan_cache_misses),
        ("parse_ns", |s| s.parse_ns),
        ("bind_ns", |s| s.bind_ns),
        ("rewrite_ns", |s| s.rewrite_ns),
        ("optimize_ns", |s| s.optimize_ns),
        ("compile_ns", |s| s.compile_ns),
        ("execute_ns", |s| s.execute_ns),
        ("vectorized_batches", |s| s.vectorized_batches),
        ("sublink_fallback_rows", |s| s.sublink_fallback_rows),
        ("columnar_blocks", |s| s.columnar_blocks),
        ("columnar_fallback_rows", |s| s.columnar_fallback_rows),
        ("cancel_checks", |s| s.cancel_checks),
        ("memo_hits", |s| s.memo_hits),
        ("memo_misses", |s| s.memo_misses),
        ("peak_bytes", |s| s.peak_bytes),
        ("spilled_bytes", |s| s.spilled_bytes),
        ("spill_partitions", |s| s.spill_partitions),
        ("buffer_pool_hits", |s| s.buffer_pool_hits),
        ("buffer_pool_misses", |s| s.buffer_pool_misses),
        ("buffer_pool_evictions", |s| s.buffer_pool_evictions),
        ("buffer_pool_capacity", |s| s.buffer_pool_capacity),
    ];
    let mut previous = session.stats();
    for sql in [
        "SELECT a FROM r WHERE a IN (SELECT c FROM s)",
        "SELECT PROVENANCE a FROM r WHERE a < 9",
        "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)",
        "SELECT g FROM r",
    ] {
        let prepared = session.prepare(sql).unwrap();
        session.execute(&prepared, &[]).unwrap();
        let current = session.stats();
        for (name, get) in counters {
            assert!(
                get(&current) >= get(&previous),
                "{name} decreased between executions ({} -> {}) after `{sql}`",
                get(&previous),
                get(&current)
            );
        }
        assert!(
            current.degradation >= previous.degradation,
            "the degradation high-water mark moved back after `{sql}`"
        );
        assert_eq!(current.executions, previous.executions + 1);
        previous = current;
    }
    assert_eq!(previous.parses, 4);
    assert_eq!(previous.executions, 4);
    assert_eq!(previous.rewrites, 1, "one statement carried PROVENANCE");
}

#[test]
fn optimizer_counters_advance_on_prepare_and_freeze_like_compiles() {
    // `optimizer_rules_fired` / `sublinks_decorrelated` follow the same
    // contract as `compiles`: they advance when a statement is prepared
    // fresh, and neither execution nor a plan-cache hit moves them.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();

    let correlated = "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)";
    let prepared = session.prepare(correlated).unwrap();
    let after_prepare = session.stats();
    assert_eq!(
        after_prepare.sublinks_decorrelated, 1,
        "the correlated EXISTS must decorrelate into a semi join"
    );
    assert!(after_prepare.optimizer_rules_fired >= after_prepare.sublinks_decorrelated);

    for _ in 0..3 {
        session.execute(&prepared, &[]).unwrap();
    }
    // Re-preparing the same text is a plan-cache hit: no optimizer work.
    let _again = session.prepare(correlated).unwrap();
    let after = session.stats();
    assert_eq!(after.sublinks_decorrelated, 1);
    assert_eq!(
        after.optimizer_rules_fired,
        after_prepare.optimizer_rules_fired
    );
    assert!(after.plan_cache_hits > 0);

    // The optimized result agrees with the reference interpreter on the
    // plan as bound.
    let reference = Executor::new(engine.database())
        .execute_unoptimized(prepared.bound_plan())
        .unwrap();
    let r_on = session.execute(&prepared, &[]).unwrap();
    assert!(r_on.bag_eq(&reference));
}

#[test]
fn explain_surfaces_the_bound_to_optimized_plan_diff() {
    // One `explain` call shows the pre-optimization bound shape, the
    // optimized logical plan and the rules that fired — so the
    // decorrelation diff is visible without a second session.
    let db = grouped_db();
    let engine = Engine::new(db);
    let session = engine.session();
    let profile = session
        .explain("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    let bound = profile.bound_plan.as_deref().expect("bound plan annotated");
    let optimized = profile
        .optimized_plan
        .as_deref()
        .expect("optimized plan annotated");
    let rules = profile
        .optimizer
        .as_deref()
        .expect("rule summary annotated");
    assert!(
        bound.contains("EXISTS") || bound.to_lowercase().contains("sublink"),
        "bound shape keeps the sublink:\n{bound}"
    );
    assert!(
        optimized.contains('⋉') || optimized.to_lowercase().contains("semi"),
        "optimized shape shows the semi join:\n{optimized}"
    );
    assert!(
        rules.contains("decorrelate"),
        "summary names the rule: {rules}"
    );
    let rendered = profile.render();
    for header in ["bound plan:", "optimized plan", "physical plan:"] {
        assert!(
            rendered.contains(header),
            "render misses `{header}`:\n{rendered}"
        );
    }

    // EXPLAIN ANALYZE carries the same annotations alongside actuals.
    let analyzed = session
        .explain_analyze("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    assert!(analyzed.bound_plan.is_some() && analyzed.optimizer.is_some());

    // The two plans the diff shows compute the same bag.
    let prepared = session
        .prepare("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    let reference = Executor::new(engine.database())
        .execute_unoptimized(prepared.bound_plan())
        .unwrap();
    assert!(session.execute(&prepared, &[]).unwrap().bag_eq(&reference));
}

#[test]
fn spill_sessions_report_buffer_pool_churn_and_capacity() {
    // The buffer-pool fields on `SessionStats`: a starvation budget with
    // spill enabled must surface the configured pool capacity (a gauge,
    // zero until a spill store exists) and the pool traffic incurred
    // while reading runs back.
    let mut db = Database::new();
    db.create_table(
        "big",
        Relation::from_rows(
            Schema::from_names(&["k", "v"]).with_qualifier("big"),
            (0..3000)
                .map(|i| vec![Value::Int((i * 37) % 1000), Value::Int(i)])
                .collect(),
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let session = engine.session_with(SessionConfig {
        memory_budget: Some(8 << 10),
        spill: true,
        ..SessionConfig::default()
    });
    let prepared = session.prepare("SELECT k, v FROM big ORDER BY k").unwrap();
    let rows = session.execute(&prepared, &[]).unwrap();
    assert_eq!(rows.len(), 3000);
    let stats = session.stats();
    assert!(
        stats.spilled_bytes > 0,
        "an 8KB budget must push the sort out of core"
    );
    assert!(
        stats.buffer_pool_capacity > 0,
        "a spill store must bring a configured pool capacity"
    );
    assert!(
        stats.buffer_pool_hits + stats.buffer_pool_misses > 0,
        "reading spilled runs back must go through the buffer pool"
    );
}

#[test]
fn phase_sums_and_counters_come_from_one_registry() {
    // One session, one registry: the pipeline phases add their wall time to
    // it, the executor its counters, and `stats()` reads them all.
    let mut db = grouped_db();
    db.create_table(
        "big",
        Relation::from_rows(
            Schema::from_names(&["k", "v"]).with_qualifier("big"),
            (0..20_000)
                .map(|i| vec![Value::Int((i * 37) % 1000), Value::Int(i)])
                .collect(),
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let session = engine.session_with(SessionConfig {
        memory_budget: Some(256 << 10),
        spill: true,
        ..SessionConfig::default()
    });
    let phases = |s: &perm::SessionStats| {
        [
            s.parse_ns,
            s.bind_ns,
            s.rewrite_ns,
            s.optimize_ns,
            s.compile_ns,
            s.execute_ns,
        ]
    };

    // A fresh provenance preparation and one execution run all six phases,
    // each timed inside the calls.
    let sql = "SELECT a FROM r WHERE EXISTS (SELECT c FROM s WHERE s.g = r.g)";
    let before = session.stats();
    let wall = std::time::Instant::now();
    let provenance = session.prepare_provenance(sql).unwrap();
    session.execute(&provenance, &[]).unwrap();
    let wall = wall.elapsed().as_nanos() as u64;
    let after = session.stats();
    let deltas: Vec<u64> = phases(&after)
        .iter()
        .zip(phases(&before))
        .map(|(a, b)| a - b)
        .collect();
    assert!(deltas.iter().all(|&d| d > 0), "{deltas:?}");
    assert!(deltas.iter().sum::<u64>() <= wall, "{deltas:?} > {wall}");
    assert_eq!(after.plan_cache_misses, before.plan_cache_misses + 1);

    // A plan-cache hit runs none of the five preparation phases.
    let hit = session.prepare_provenance(sql).unwrap();
    let cached = session.stats();
    assert!(std::sync::Arc::ptr_eq(&hit, &provenance));
    assert_eq!(cached.plan_cache_hits, after.plan_cache_hits + 1);
    assert_eq!(phases(&cached)[..5], phases(&after)[..5]);

    // A correlated scalar `avg`, twice: the second run is served by the
    // statement's memo.
    let correlated = session
        .prepare("SELECT a FROM r WHERE a < (SELECT avg(c) FROM s WHERE s.g = r.g)")
        .unwrap();
    session.execute(&correlated, &[]).unwrap();
    let first = session.stats();
    session.execute(&correlated, &[]).unwrap();
    let second = session.stats();
    assert!(second.memo_hits > first.memo_hits, "{second:?}");
    assert_eq!(second.memo_misses, first.memo_misses);
    assert!(second.execute_ns > first.execute_ns);

    // A sort ten times the budget goes out of core.
    let sorted = session.prepare("SELECT k, v FROM big ORDER BY k").unwrap();
    assert_eq!(session.execute(&sorted, &[]).unwrap().len(), 20_000);
    let spilled = session.stats();
    assert!(spilled.spilled_bytes > 0 && spilled.degradation > Degradation::None);

    // An expired deadline cancels at the first checkpoint, and a failed
    // execution adds no execute time.
    let scan = session.prepare("SELECT k FROM big WHERE v > 5").unwrap();
    let ready = session.stats();
    let cancelled = session.execute_with_deadline(&scan, &[], std::time::Duration::ZERO);
    assert!(matches!(
        cancelled,
        Err(PermError::Exec(perm::ExecError::Cancelled { .. }))
    ));
    let stats = session.stats();
    assert_eq!(stats.execute_ns, ready.execute_ns);
    assert_eq!(stats.executions, ready.executions);

    // The session's counters are its executor's, and every getter the
    // benchmark still calls reads the same registry.
    let ex = session.executor();
    assert_eq!(ex.stats(), stats);
    assert_eq!(ex.operators_evaluated(), stats.operators_evaluated);
    assert_eq!(ex.batches_vectorized(), stats.vectorized_batches);
    assert_eq!(ex.batch_fallback_rows(), stats.sublink_fallback_rows);
    assert_eq!(ex.columnar_fallback_rows(), stats.columnar_fallback_rows);
    assert_eq!(ex.spilled_bytes(), stats.spilled_bytes);
    assert_eq!(ex.spill_partitions(), stats.spill_partitions);
    assert_eq!(ex.buffer_pool_hits(), stats.buffer_pool_hits);
    assert_eq!(ex.buffer_pool_misses(), stats.buffer_pool_misses);
    assert_eq!(ex.buffer_pool_evictions(), stats.buffer_pool_evictions);
    assert!(stats.operators_evaluated > 0 && stats.buffer_pool_misses > 0);
}

#[test]
fn a_cancelled_stream_leaves_its_session_serving() {
    // Cancelling a stream through its own handle stops that stream and
    // nothing else: the token belongs to the cursor's execution.
    let engine = Engine::new(grouped_db());
    let session = engine.session();
    let prepared = session
        .prepare("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)")
        .unwrap();
    let mut stream = session.rows(&prepared, &[]).unwrap();
    assert!(stream.next().unwrap().is_ok());
    stream.cancel_handle().cancel("client went away");
    assert!(matches!(
        stream.next(),
        Some(Err(perm::ExecError::Cancelled { .. }))
    ));
    drop(stream);
    for _ in 0..2 {
        let rows = session
            .execute(&prepared, &[])
            .expect("a cancelled stream must not cancel later executions");
        assert_eq!(rows.len(), 12);
    }
}

#[test]
fn another_statements_expired_deadline_does_not_reach_an_open_stream() {
    // A deadline governs the execution it was minted for: an open stream
    // on the same session drains completely after another statement's
    // deadline expired.
    const ROWS: i64 = 70_000;
    let mut db = grouped_db();
    db.create_table(
        "big",
        Relation::from_rows(
            Schema::from_names(&["k"]).with_qualifier("big"),
            (0..ROWS).map(|i| vec![Value::Int(i)]).collect(),
        ),
    )
    .unwrap();
    let engine = Engine::new(db);
    let session = engine.session();
    let scan = session.prepare("SELECT k FROM big WHERE k >= 0").unwrap();
    let other = session.prepare("SELECT a FROM r").unwrap();
    let mut stream = session.rows(&scan, &[]).unwrap();
    assert!(stream.next().unwrap().is_ok());
    assert!(matches!(
        session.execute_with_deadline(&other, &[], std::time::Duration::ZERO),
        Err(PermError::Exec(perm::ExecError::Cancelled { .. }))
    ));
    let rest = stream
        .collect::<Result<Vec<_>, _>>()
        .expect("the other statement's deadline must not cancel the stream");
    assert_eq!(rest.len() as i64, ROWS - 1);
}

#[test]
fn interleaved_profiles_attribute_sublink_memo_traffic_to_their_own_plan() {
    // Sublink ids are numbered per plan, so both plans below have a sublink
    // 0. A profiled cursor over one and a profiled execution of the other,
    // interleaved on one executor, must each record exactly the sublink
    // memo traffic of their plan profiled alone.
    fn memo_traffic(node: &perm::ProfileNode, out: &mut Vec<(u64, u64)>) {
        for sub in &node.sublinks {
            out.push((sub.memo_hits, sub.memo_misses));
            memo_traffic(sub, out);
        }
        for child in &node.children {
            memo_traffic(child, out);
        }
    }
    fn traffic(profile: &QueryProfile) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        memo_traffic(&profile.root, &mut out);
        out
    }
    let db = grouped_db();
    // Compiled as bound: the optimizer would decorrelate the sublinks.
    let plan = |sql: &str| perm::sql::compile(&db, sql).unwrap().0;
    let streamed = plan("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE s.g = r.g)");
    let executed = plan("SELECT c FROM s WHERE c > (SELECT min(a) FROM r WHERE r.g = s.g)");

    let alone = Executor::new(&db);
    let compiled = alone.prepare(&streamed).unwrap();
    let mut rows = alone.open_profiled(&compiled).unwrap();
    assert_eq!(rows.by_ref().count(), 12);
    let streamed_alone = traffic(&rows.profile().unwrap());
    drop(rows);
    let compiled = alone.prepare(&executed).unwrap();
    let executed_alone = traffic(&alone.execute_profiled(&compiled).unwrap().1);
    assert!(streamed_alone.iter().all(|&(h, m)| h > 0 && m > 0));
    assert!(executed_alone.iter().all(|&(h, m)| h > 0 && m > 0));

    let ex = Executor::new(&db);
    let (streamed, executed) = (
        ex.prepare(&streamed).unwrap(),
        ex.prepare(&executed).unwrap(),
    );
    let mut rows = ex.open_profiled(&streamed).unwrap();
    assert!(rows.next().unwrap().is_ok());
    let (_, executed_profile) = ex.execute_profiled(&executed).unwrap();
    assert_eq!(rows.by_ref().count(), 11);
    assert_eq!(traffic(&rows.profile().unwrap()), streamed_alone);
    assert_eq!(traffic(&executed_profile), executed_alone);
}

#[test]
fn a_statement_prepared_over_a_wider_table_fails_with_an_arity_mismatch() {
    // Statements prepared against `t(x, y)` and executed over a database
    // whose `t` is `t(x)`: every stored row is checked against the plan's
    // schema before an operator reads a column of it, so each statement
    // fails with the storage layer's typed error instead of reading past a
    // row's end.
    let table = |names: &[&str], rows: Vec<Vec<Value>>| {
        let mut db = Database::new();
        db.create_table(
            "t",
            Relation::from_rows(Schema::from_names(names).with_qualifier("t"), rows),
        )
        .unwrap();
        db
    };
    let wide = table(
        &["x", "y"],
        (0..8).map(|i| vec![Value::Int(i), Value::Int(i)]).collect(),
    );
    let narrow = table(&["x"], (0..8).map(|i| vec![Value::Int(i)]).collect());
    let engine = Engine::new(wide);
    let session = engine.session();
    let stale = Session::new(&narrow);
    for sql in [
        "SELECT y FROM t WHERE y > 4",
        "SELECT x, y FROM t",
        "SELECT t.y, u.x FROM t, t u WHERE t.y = u.x",
    ] {
        let prepared = session.prepare(sql).unwrap();
        assert!(
            !session.execute(&prepared, &[]).unwrap().is_empty(),
            "{sql}"
        );
        let err = stale.execute(&prepared, &[]).unwrap_err();
        let exec = err.source().expect("PermError::Exec has a source");
        let storage = exec.source().expect("ExecError::Storage has a source");
        assert_eq!(
            storage.to_string(),
            "arity mismatch: expected 2 values, found 1",
            "{sql}"
        );
        // The streamed scan of a cursor checks the same way.
        let streamed = match stale.rows(&prepared, &[]) {
            Ok(rows) => rows.into_relation().map_err(PermError::Exec),
            Err(e) => Err(e),
        };
        assert_eq!(streamed.unwrap_err().to_string(), err.to_string(), "{sql}");
    }
}
