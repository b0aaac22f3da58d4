//! End-to-end tests through the SQL front end: `SELECT PROVENANCE` queries
//! with nested subqueries, executed against the in-memory engine.

use perm::prelude::*;
use perm::SessionConfig;

/// Provenance of a SQL query through the Session API with an explicit
/// strategy (the Session-era spelling of the old `provenance_of_sql`).
fn provenance_of_sql(
    db: &Database,
    sql: &str,
    strategy: Strategy,
) -> Result<Relation, perm::PermError> {
    let session = Session::with_config(
        db,
        SessionConfig {
            strategy,
            ..SessionConfig::default()
        },
    );
    let prepared = session.prepare_provenance(sql)?;
    session.execute(&prepared, &[])
}

fn run(db: &Database, sql: &str) -> Result<Relation, perm::PermError> {
    Session::new(db).run(sql)
}

fn shop_db() -> Database {
    let mut db = Database::new();
    db.create_table(
        "items",
        Relation::from_rows(
            Schema::from_names(&["id", "name", "price"]).with_qualifier("items"),
            vec![
                vec![Value::Int(1), Value::str("keyboard"), Value::Int(30)],
                vec![Value::Int(2), Value::str("monitor"), Value::Int(220)],
                vec![Value::Int(3), Value::str("cable"), Value::Int(5)],
                vec![Value::Int(4), Value::str("laptop"), Value::Int(900)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "orders",
        Relation::from_rows(
            Schema::from_names(&["order_id", "item_id", "qty"]).with_qualifier("orders"),
            vec![
                vec![Value::Int(100), Value::Int(1), Value::Int(2)],
                vec![Value::Int(101), Value::Int(2), Value::Int(1)],
                vec![Value::Int(102), Value::Int(2), Value::Int(3)],
                vec![Value::Int(103), Value::Int(3), Value::Int(10)],
            ],
        ),
    )
    .unwrap();
    db
}

#[test]
fn provenance_keyword_triggers_the_rewrite() {
    let db = shop_db();
    let plain = run(&db, "SELECT name FROM items WHERE price > 100").unwrap();
    assert_eq!(plain.schema().names(), ["name"].map(Name::from));
    let prov = run(&db, "SELECT PROVENANCE name FROM items WHERE price > 100").unwrap();
    assert_eq!(
        prov.schema().names(),
        [
            "name",
            "prov_items_id",
            "prov_items_name",
            "prov_items_price"
        ]
        .map(Name::from)
    );
    assert_eq!(plain.len(), prov.len());
}

#[test]
fn provenance_of_in_subquery_links_items_to_their_orders() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE name FROM items \
               WHERE id IN (SELECT item_id FROM orders WHERE qty > 1)";
    let result = run(&db, sql).unwrap();
    // keyboard (order 100, qty 2), monitor (order 102, qty 3), cable (order
    // 103, qty 10) qualify; the monitor's qty-1 order must not appear.
    assert_eq!(result.len(), 3);
    let schema = result.schema();
    let prov_order = schema.resolve(None, "prov_orders_order_id".into()).unwrap();
    let orders: Vec<i64> = result
        .tuples()
        .iter()
        .map(|t| t.get(prov_order).as_i64().unwrap())
        .collect();
    assert!(orders.contains(&100));
    assert!(orders.contains(&102));
    assert!(orders.contains(&103));
    assert!(!orders.contains(&101), "the qty-1 order did not contribute");
}

#[test]
fn not_exists_provenance_pads_missing_orders_with_null() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE name FROM items \
               WHERE NOT EXISTS (SELECT * FROM orders WHERE orders.item_id = items.id)";
    let result = run(&db, sql).unwrap();
    // Only the laptop has no orders.
    assert_eq!(result.len(), 1);
    let schema = result.schema();
    let name = schema.resolve(None, "name".into()).unwrap();
    let prov_order = schema.resolve(None, "prov_orders_order_id".into()).unwrap();
    assert_eq!(result.tuples()[0].get(name), &Value::str("laptop"));
    assert!(result.tuples()[0].get(prov_order).is_null());
}

#[test]
fn strategies_agree_through_the_sql_interface() {
    let db = shop_db();
    let sql = "SELECT name FROM items WHERE id IN (SELECT item_id FROM orders WHERE qty > 1)";
    let reference = provenance_of_sql(&db, sql, Strategy::Gen).unwrap();
    for strategy in [
        Strategy::Left,
        Strategy::Move,
        Strategy::Unn,
        Strategy::Auto,
    ] {
        let result = provenance_of_sql(&db, sql, strategy).unwrap();
        assert!(
            result.set_eq(&reference),
            "{strategy} disagrees with Gen:\n{result}\nvs\n{reference}"
        );
    }
}

#[test]
fn aggregation_provenance_attributes_the_whole_group() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE item_id, sum(qty) AS total \
               FROM orders GROUP BY item_id HAVING sum(qty) > 2";
    let result = run(&db, sql).unwrap();
    // Groups item 2 (qty 1+3=4) and item 3 (qty 10): item 2's group has two
    // contributing orders, item 3's group one — three provenance rows.
    assert_eq!(result.len(), 3);
    let schema = result.schema();
    let item = schema.resolve(None, "item_id".into()).unwrap();
    let total = schema.resolve(None, "total".into()).unwrap();
    for row in result.tuples() {
        match row.get(item).as_i64().unwrap() {
            2 => assert_eq!(row.get(total), &Value::Int(4)),
            3 => assert_eq!(row.get(total), &Value::Int(10)),
            other => panic!("unexpected group {other}"),
        }
    }
}

#[test]
fn scalar_subquery_provenance() {
    let db = shop_db();
    let sql = "SELECT PROVENANCE name FROM items \
               WHERE price = (SELECT max(price) FROM items)";
    let result = run(&db, sql).unwrap();
    assert_eq!(result.len(), 4, "all items feed the max() sublink");
    let schema = result.schema();
    let name = schema.resolve(None, "name".into()).unwrap();
    for row in result.tuples() {
        assert_eq!(row.get(name), &Value::str("laptop"));
    }
}

#[test]
fn provenance_result_is_a_relation_usable_as_input() {
    // The single-relation representation can be registered as a table and
    // queried again — the property Section 3.1 emphasises.
    let db = shop_db();
    let prov = provenance_of_sql(
        &db,
        "SELECT name FROM items WHERE id IN (SELECT item_id FROM orders)",
        Strategy::Auto,
    )
    .unwrap();
    let mut db2 = shop_db();
    db2.create_table("item_provenance", prov).unwrap();
    let roundtrip = run(
        &db2,
        "SELECT DISTINCT prov_orders_order_id FROM item_provenance ORDER BY prov_orders_order_id",
    )
    .unwrap();
    assert_eq!(roundtrip.len(), 4);
}

#[test]
fn errors_are_reported_not_panicked() {
    let db = shop_db();
    assert!(run(&db, "SELECT nothing FROM missing_table").is_err());
    assert!(run(&db, "THIS IS NOT SQL").is_err());
    assert!(provenance_of_sql(&db, "SELECT * FROM items LIMIT abc", Strategy::Gen).is_err());
}

/// `r1(a, b, g)` / `r2(a, b, g)` in the layout of the synthetic workloads.
fn grouped_pair_db() -> Database {
    let mut db = Database::new();
    for (name, rows) in [
        ("r1", vec![(1, 30, 0), (2, 10, 1), (3, 20, 1), (4, 40, 2)]),
        ("r2", vec![(1, 5, 0), (2, 6, 1), (5, 7, 1), (6, 8, 3)]),
    ] {
        db.create_table(
            name,
            Relation::from_rows(
                Schema::from_names(&["a", "b", "g"]).with_qualifier(name),
                rows.into_iter()
                    .map(|(a, b, g)| vec![Value::Int(a), Value::Int(b), Value::Int(g)])
                    .collect(),
            ),
        )
        .unwrap();
    }
    db
}

#[test]
fn group_by_resolves_a_qualified_column_of_a_join() {
    // Used to fail with `unknown attribute g`: the grouping output dropped
    // the qualifier the select list refers to.
    let db = grouped_pair_db();
    let sql = "SELECT r1.g, count(*) AS n FROM r1, r2 WHERE r1.g = r2.g GROUP BY r1.g";
    let result = run(&db, sql).unwrap();
    let mut rows: Vec<(i64, i64)> = result
        .tuples()
        .iter()
        .map(|t| (t.get(0).as_i64().unwrap(), t.get(1).as_i64().unwrap()))
        .collect();
    rows.sort_unstable();
    assert_eq!(rows, vec![(0, 1), (1, 4)]);
    // Unqualified and mixed spellings name the same grouping column.
    for variant in [
        "SELECT g, count(*) AS n FROM r1 GROUP BY r1.g",
        "SELECT r1.g, count(*) AS n FROM r1 GROUP BY r1.g HAVING count(*) > 1",
    ] {
        run(&db, variant).unwrap_or_else(|e| panic!("`{variant}`: {e}"));
    }
    // The provenance rewrite joins the groups back by the qualified name.
    let witnesses = provenance_of_sql(&db, sql, Strategy::Auto).unwrap();
    assert_eq!(witnesses.len(), 5, "one row per contributing (r1, r2) pair");
    assert_eq!(witnesses.schema().arity(), 2 + 3 + 3);
}

#[test]
fn order_by_resolves_a_qualified_column_of_a_self_join() {
    // Used to fail with `ambiguous attribute b`: the sort key was looked up
    // among the output names, where `x.b` and `y.b` are both `b`.
    let db = grouped_pair_db();
    let sql = "SELECT x.a, x.b, y.b FROM r1 x, r1 y WHERE x.a = y.a ORDER BY x.b";
    let result = run(&db, sql).unwrap();
    let order: Vec<i64> = result
        .tuples()
        .iter()
        .map(|t| t.get(1).as_i64().unwrap())
        .collect();
    assert_eq!(order, vec![10, 20, 30, 40]);
    let descending = run(&db, &sql.replace("ORDER BY x.b", "ORDER BY y.b DESC")).unwrap();
    assert_eq!(descending.tuples()[0].get(2).as_i64(), Some(40));
    let witnesses = provenance_of_sql(&db, sql, Strategy::Auto).unwrap();
    assert_eq!(witnesses.len(), 4);
}

#[test]
fn limit_provenance_with_a_repeated_output_name() {
    // Used to fail with `ambiguous attribute b`: the limit rule joins the
    // limited result back to its input, and joined on bare output names.
    let db = grouped_pair_db();
    let sql = "SELECT x.a, x.b, y.b FROM r1 x, r1 y WHERE x.g = y.g ORDER BY x.b LIMIT 4";
    assert_eq!(run(&db, sql).unwrap().len(), 4);
    for strategy in [Strategy::Gen, Strategy::Auto] {
        let session = Session::with_config(
            &db,
            SessionConfig {
                strategy,
                ..SessionConfig::default()
            },
        );
        let prepared = session.prepare_provenance(sql).unwrap();
        let witnesses = session.execute(&prepared, &[]).unwrap();
        let reference = Executor::new(&db)
            .execute_unoptimized(prepared.bound_plan())
            .unwrap();
        assert!(
            witnesses.bag_eq(&reference),
            "{strategy}:\n{witnesses}\nvs\n{reference}"
        );
        assert_eq!(witnesses.len(), 4, "{strategy}: one (x, y) pair per row");
        assert_eq!(witnesses.schema().arity(), 3 + 3 + 3);
    }
}

/// `r(a, b)`, `s(c)`, `t(d)`: the relations of the nested-test-expression
/// shapes below.
fn nested_db() -> Database {
    let mut db = Database::new();
    let table = |name: &str, cols: &[&str], rows: &[&[i64]]| {
        Relation::from_rows(
            Schema::from_names(cols).with_qualifier(name),
            rows.iter()
                .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
                .collect(),
        )
    };
    db.create_table("r", table("r", &["a", "b"], &[&[1, 1], &[2, 1], &[3, 2]]))
        .unwrap();
    db.create_table("s", table("s", &["c"], &[&[2], &[3]]))
        .unwrap();
    db.create_table("t", table("t", &["d"], &[&[1], &[3], &[5]]))
        .unwrap();
    db
}

/// The distinct rows of `rel`, sorted.
fn distinct_rows(rel: &Relation) -> Vec<Tuple> {
    let mut rows = rel.distinct().tuples().to_vec();
    rows.sort_by(|a, b| a.sort_key(b));
    rows
}

#[test]
fn a_sublink_in_a_test_expression_contributes_its_witnesses() {
    // Each query holds a sublink over `s` inside the test expression of a
    // sublink over `t`. Definition 2 makes every sublink of the condition
    // contribute, so `s` must show up as witness columns — under Gen and
    // Auto, equal to the reference tracer — and no strategy may return a
    // result without them.
    use perm::core::tracer::Tracer;
    use perm::core::ProvenanceError;
    let db = nested_db();
    for sql in [
        "SELECT PROVENANCE a, b FROM r WHERE (SELECT max(c) FROM s) IN (SELECT d FROM t)",
        "SELECT PROVENANCE a, b FROM r WHERE (SELECT max(c) FROM s) = ANY (SELECT d FROM t)",
        "SELECT PROVENANCE a, b FROM r \
         WHERE a + (SELECT min(c) FROM s) > ALL (SELECT d FROM t WHERE d < 4)",
        "SELECT PROVENANCE a, b FROM r \
         WHERE (SELECT max(c) FROM s WHERE c > r.a) IN (SELECT d FROM t)",
        "SELECT PROVENANCE a, (SELECT max(c) FROM s) IN (SELECT d FROM t) AS x FROM r",
    ] {
        let (bound, provenance) = perm::sql::compile(&db, sql).unwrap();
        assert!(provenance);
        let traced = Tracer::new(&db).trace(&bound).unwrap();
        let names = traced.schema().names();
        assert!(
            names.contains(&"prov_s_c".into()) && names.contains(&"prov_t_d".into()),
            "{sql}: {names:?}"
        );
        let prov_s = traced.schema().resolve(None, "prov_s_c".into()).unwrap();
        assert!(
            traced.tuples().iter().any(|t| !t.get(prov_s).is_null()),
            "{sql}: no row carries an `s` witness:\n{traced}"
        );
        let reference = distinct_rows(&traced);
        for strategy in [Strategy::Gen, Strategy::Auto] {
            let got = provenance_of_sql(&db, sql, strategy)
                .unwrap_or_else(|e| panic!("{strategy} on {sql}: {e}"));
            assert_eq!(got.schema().names(), names, "{strategy} on {sql}");
            assert_eq!(
                distinct_rows(&got),
                reference,
                "{strategy} on {sql}:\n{got}\nvs the tracer\n{traced}"
            );
        }
        for strategy in [Strategy::Left, Strategy::Move, Strategy::Unn] {
            match provenance_of_sql(&db, sql, strategy) {
                Err(perm::PermError::Provenance(ProvenanceError::NotApplicable { .. })) => {}
                Ok(got) => assert_eq!(
                    distinct_rows(&got),
                    reference,
                    "{strategy} on {sql}:\n{got}"
                ),
                Err(other) => panic!("{strategy} on {sql}: {other}"),
            }
        }
    }
}

/// Projection pruning keeps an item that a reference spelled in another
/// case reads: resolution ignores ASCII case, so liveness must too (an
/// exact-spelling check dropped `a` below `A` and the provenance query
/// failed with an unknown attribute).
#[test]
fn pruning_keeps_an_item_read_in_another_case() {
    let db = shop_db();
    let lower = run(
        &db,
        "SELECT PROVENANCE name FROM (SELECT name, price FROM items) s WHERE price > 100",
    )
    .unwrap();
    let upper = run(
        &db,
        "SELECT PROVENANCE NAME FROM (SELECT name, price FROM items) s WHERE S.Price > 100",
    )
    .unwrap();
    assert_eq!(upper.len(), 2);
    assert_eq!(distinct_rows(&upper), distinct_rows(&lower));
    assert_eq!(&*upper.schema().attr(0).name, "NAME");
}

/// `r(a, x)`, `s1(a)` and `s2(a)`, two rows each.
fn ambiguous_db() -> Database {
    let mut db = Database::new();
    for (name, columns) in [("r", &["a", "x"][..]), ("s1", &["a"]), ("s2", &["a"])] {
        let rows = (1..=2)
            .map(|i| columns.iter().map(|_| Value::Int(i)).collect())
            .collect();
        db.create_table(
            name,
            Relation::from_rows(Schema::from_names(columns).with_qualifier(name), rows),
        )
        .unwrap();
    }
    db
}

/// A column that names an attribute of two relations of the `FROM` list is
/// ambiguous wherever it is read. The binder's pushdown must not move a
/// conjunct reading it onto the one factor where it happens to be unique
/// (`s2` below `r × s1`, which holds `a` twice): that answered the query with
/// `σ_{a = 1}(s2)` where evaluating `a` must fail, as it does when the
/// conjunct stays put (under an `OR`) and in the select list.
#[test]
fn a_conjunct_on_an_ambiguous_column_stays_above_the_product_and_fails() {
    let db = ambiguous_db();
    for sql in [
        "SELECT x FROM r, s1, s2 WHERE a = 1",
        "SELECT x FROM r, s1, s2 WHERE a = 1 OR x = 99",
        "SELECT a FROM r, s1, s2",
    ] {
        match run(&db, sql) {
            Err(err) => assert!(
                format!("{err:?}").contains("AmbiguousAttribute(\"a\")"),
                "{sql}: {err:?}"
            ),
            Ok(rows) => panic!("{sql}: {} rows, expected an ambiguity error", rows.len()),
        }
    }
}

/// The distinct rows of `rel`'s first `arity` columns — a provenance
/// result restricted to the query's own result columns — sorted. A result
/// row repeats once per witness combination, so the comparison with the
/// plain query is on sets.
fn result_rows(rel: &Relation, arity: usize) -> Vec<Tuple> {
    let mut rows: Vec<Tuple> = rel
        .tuples()
        .iter()
        .map(|t| Tuple::new(t.values()[..arity].to_vec()))
        .collect();
    rows.sort_by(|a, b| a.sort_key(b));
    rows.dedup();
    rows
}

/// Move (and `Auto`, which picks it) rebuilds a Π with a sublink item, and
/// must keep each item's qualifier: without it the two `a`s of a self join
/// came out as one ambiguous name (`AmbiguousAttribute("a")`).
#[test]
fn a_select_list_sublink_keeps_the_qualifiers_of_the_other_items() {
    use perm::core::ProvenanceError;
    let db = perm::synthetic::build_database(6, 5, 3);
    let sql = "SELECT PROVENANCE x.a, y.a, EXISTS (SELECT * FROM r2 WHERE r2.b < 500) AS e \
               FROM r1 x, r1 y LIMIT 3";
    let plain = run(&db, &sql.replacen("PROVENANCE ", "", 1)).unwrap();
    assert_eq!(plain.len(), 3);
    let gen = provenance_of_sql(&db, sql, Strategy::Gen).unwrap();
    assert_eq!(gen.len(), 15, "three rows, five r2 witnesses each");
    for strategy in [
        Strategy::Left,
        Strategy::Move,
        Strategy::Unn,
        Strategy::Auto,
    ] {
        match provenance_of_sql(&db, sql, strategy) {
            Err(perm::PermError::Provenance(ProvenanceError::NotApplicable { .. }))
                if strategy == Strategy::Unn => {}
            Ok(got) => {
                assert_eq!(result_rows(&got, 3), result_rows(&plain, 3), "{strategy}");
                assert!(got.bag_eq(&gen), "{strategy}:\n{got}\nvs Gen\n{gen}");
            }
            Err(other) => panic!("{strategy}: {other}"),
        }
    }
}

/// An inner join's `ON` condition with a sublink is rewritten as
/// `σ_θ(L × R)`, θ as written: the witnesses are those of the same query
/// with the sublink moved to `WHERE`. A left outer join's is refused.
#[test]
fn a_sublink_in_an_inner_join_condition_has_the_witnesses_of_its_where_twin() {
    use perm::core::ProvenanceError;
    let db = perm::synthetic::build_matching_database(40, 10, 3);
    for sublink in [
        // Correlated: `Auto` takes Gen.
        "EXISTS (SELECT * FROM r2 s WHERE s.g < r1.g)",
        // Uncorrelated: `Auto` takes Move.
        "EXISTS (SELECT * FROM r2 s WHERE s.b < 0)",
    ] {
        let on =
            format!("SELECT PROVENANCE r1.a, r2.b FROM r1 JOIN r2 ON r1.a = r2.a AND {sublink}");
        let moved =
            format!("SELECT PROVENANCE r1.a, r2.b FROM r1 JOIN r2 ON r1.a = r2.a WHERE {sublink}");
        let plain = run(&db, &on.replacen("PROVENANCE ", "", 1)).unwrap();
        assert!(!plain.is_empty(), "{on}");
        for strategy in [Strategy::Gen, Strategy::Auto] {
            let got = provenance_of_sql(&db, &on, strategy)
                .unwrap_or_else(|e| panic!("{strategy} on {on}: {e}"));
            assert_eq!(
                result_rows(&got, 2),
                result_rows(&plain, 2),
                "{strategy}: {on}"
            );
            let twin = provenance_of_sql(&db, &moved, strategy).unwrap();
            assert_eq!(got.schema().names(), twin.schema().names());
            assert!(got.bag_eq(&twin), "{strategy}: {on}:\n{got}\nvs\n{twin}");
        }
    }
    let outer = "SELECT PROVENANCE r1.a FROM r1 LEFT JOIN r2 \
                 ON r1.a = r2.a AND EXISTS (SELECT * FROM r2 s WHERE s.b < 0)";
    match provenance_of_sql(&db, outer, Strategy::Gen) {
        Err(perm::PermError::Provenance(ProvenanceError::Unsupported(text))) => {
            assert!(text.contains("LeftOuter"), "{text}")
        }
        other => panic!("expected Unsupported, got {:?}", other.map(|r| r.len())),
    }
}
