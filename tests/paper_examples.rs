//! The worked examples of the paper, end to end.
//!
//! * Figure 3 — the provenance of three sublink queries over the example
//!   relations R(a, b) and S(c, d).
//! * Section 2.5 — the ambiguity of Definition 1 for multiple sublinks and
//!   the uniqueness restored by Definition 2.
//! * Section 3.1 — the provenance schema/representation of `qex`.

use perm::prelude::*;
use perm::PermError;
use perm_core::tracer::Tracer;

fn session(db: &Database, strategy: Strategy) -> Session<'_> {
    Session::with_config(
        db,
        SessionConfig {
            strategy,
            ..SessionConfig::default()
        },
    )
}

/// The provenance of a SQL query under an explicit rewrite strategy.
fn provenance_of_sql(db: &Database, sql: &str, strategy: Strategy) -> Result<Relation, PermError> {
    let session = session(db, strategy);
    let prepared = session.prepare_provenance(sql)?;
    session.execute(&prepared, &[])
}

/// R = {(1,1), (2,1), (3,2)} and S = {(1,3), (2,4), (4,5)} from Figure 3.
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

fn rows(rel: &Relation) -> Vec<Vec<Value>> {
    rel.sorted_tuples()
        .into_iter()
        .map(Tuple::into_values)
        .collect()
}

#[test]
fn figure3_q1_provenance() {
    // q1 = σ_{a = ANY(Π_c(S))}(R):
    //   (1,1) → R* = {(1,1)}, S* = {(1,3)}
    //   (2,1) → R* = {(2,1)}, S* = {(2,4)}
    let db = figure3_db();
    let sql = "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)";
    let result = provenance_of_sql(&db, sql, Strategy::Gen).unwrap();
    assert_eq!(
        result.schema().names(),
        ["a", "b", "prov_r_a", "prov_r_b", "prov_s_c", "prov_s_d"].map(Name::from)
    );
    assert_eq!(
        rows(&result),
        vec![
            vec![1, 1, 1, 1, 1, 3]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>(),
            vec![2, 1, 2, 1, 2, 4]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>(),
        ]
    );
}

#[test]
fn figure3_q2_provenance() {
    // q2 = σ_{c > ALL(Π_a(R))}(S): the single result tuple (4,5) has all of R
    // in its provenance.
    let db = figure3_db();
    let sql = "SELECT * FROM s WHERE c > ALL (SELECT a FROM r)";
    let result = provenance_of_sql(&db, sql, Strategy::Left).unwrap();
    assert_eq!(result.len(), 3, "one row per contributing R tuple");
    let schema = result.schema();
    let c = schema.resolve(None, "c".into()).unwrap();
    let prov_a = schema.resolve(None, "prov_r_a".into()).unwrap();
    let mut r_values: Vec<i64> = result
        .tuples()
        .iter()
        .map(|t| t.get(prov_a).as_i64().unwrap())
        .collect();
    r_values.sort_unstable();
    assert_eq!(r_values, vec![1, 2, 3]);
    assert!(result.tuples().iter().all(|t| t.get(c) == &Value::Int(4)));
}

#[test]
fn figure3_q3_provenance_for_the_reqfalse_tuple() {
    // q3 = σ_{(a=3) ∨ ¬(a < ALL(σ_{c≠1}(Π_c(S))))}(R). For the tuple (2,1)
    // the sublink is required to be false and its provenance is Tsub_false =
    // {(2,4)}, exactly as Figure 3 lists.
    let db = figure3_db();
    let sql = "SELECT * FROM r \
               WHERE a = 3 OR NOT (a < ALL (SELECT c FROM s WHERE c <> 1))";
    let result = provenance_of_sql(&db, sql, Strategy::Gen).unwrap();
    let schema = result.schema();
    let a = schema.resolve(None, "a".into()).unwrap();
    let prov_c = schema.resolve(None, "prov_s_c".into()).unwrap();
    let originals: Vec<i64> = result
        .tuples()
        .iter()
        .map(|t| t.get(a).as_i64().unwrap())
        .collect();
    assert!(originals.contains(&2));
    assert!(originals.contains(&3));
    assert!(!originals.contains(&1));
    let s_prov_for_2: Vec<i64> = result
        .tuples()
        .iter()
        .filter(|t| t.get(a) == &Value::Int(2))
        .map(|t| t.get(prov_c).as_i64().unwrap())
        .collect();
    assert_eq!(s_prov_for_2, vec![2]);
}

#[test]
fn section_2_5_multi_sublink_query_has_unique_definition2_provenance() {
    // σ_{(a = ANY R) ∨ (a > ALL S)}(U) with R = {1…100}, S = {1, 5},
    // U = {5}: under Definition 2 the provenance of (5) according to R is
    // {(5)} (the only tuple reproducing C1 = true) and according to S is
    // {(5)} (the only tuple reproducing C2 = false).
    let mut db = Database::new();
    db.create_table(
        "rnum",
        Relation::from_rows(
            Schema::from_names(&["b"]).with_qualifier("rnum"),
            (1..=100).map(|i| vec![Value::Int(i)]).collect(),
        ),
    )
    .unwrap();
    db.create_table(
        "snum",
        Relation::from_rows(
            Schema::from_names(&["c"]).with_qualifier("snum"),
            vec![vec![Value::Int(1)], vec![Value::Int(5)]],
        ),
    )
    .unwrap();
    db.create_table(
        "u",
        Relation::from_rows(
            Schema::from_names(&["a"]).with_qualifier("u"),
            vec![vec![Value::Int(5)]],
        ),
    )
    .unwrap();
    let sql = "SELECT * FROM u \
               WHERE a = ANY (SELECT b FROM rnum) OR a > ALL (SELECT c FROM snum)";
    let result = provenance_of_sql(&db, sql, Strategy::Gen).unwrap();
    // A unique provenance combination: (U*, R*, S*) = ({5}, {5}, {5}).
    assert_eq!(result.len(), 1);
    let row = &result.tuples()[0];
    let schema = result.schema();
    assert_eq!(
        row.get(schema.resolve(None, "prov_u_a".into()).unwrap()),
        &Value::Int(5)
    );
    assert_eq!(
        row.get(schema.resolve(None, "prov_rnum_b".into()).unwrap()),
        &Value::Int(5)
    );
    assert_eq!(
        row.get(schema.resolve(None, "prov_snum_c".into()).unwrap()),
        &Value::Int(5)
    );

    // The Left and Move strategies (the sublinks are uncorrelated) and the
    // tracer agree.
    let left = provenance_of_sql(&db, sql, Strategy::Left).unwrap();
    let move_ = provenance_of_sql(&db, sql, Strategy::Move).unwrap();
    assert!(left.set_eq(&result));
    assert!(move_.set_eq(&result));
}

#[test]
fn section_3_1_example_qex_provenance_representation() {
    // qex = Π_{a,c}(σ_{a<c}(R × S)) over R = {(1,2),(3,4)}, S = {(2),(5)}:
    // the provenance relation of Section 3.1 with schema
    // (a, c, pa, pb, pc) and three tuples.
    let mut db = Database::new();
    db.create_table(
        "rx",
        Relation::from_rows(
            Schema::from_names(&["a", "b"]).with_qualifier("rx"),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(3), Value::Int(4)],
            ],
        ),
    )
    .unwrap();
    db.create_table(
        "sx",
        Relation::from_rows(
            Schema::from_names(&["c"]).with_qualifier("sx"),
            vec![vec![Value::Int(2)], vec![Value::Int(5)]],
        ),
    )
    .unwrap();
    let result =
        provenance_of_sql(&db, "SELECT a, c FROM rx, sx WHERE a < c", Strategy::Gen).unwrap();
    assert_eq!(
        result.schema().names(),
        ["a", "c", "prov_rx_a", "prov_rx_b", "prov_sx_c"].map(Name::from)
    );
    let expected: Vec<Vec<i64>> = vec![
        vec![1, 2, 1, 2, 2],
        vec![1, 5, 1, 2, 5],
        vec![3, 5, 3, 4, 5],
    ];
    let got: Vec<Vec<i64>> = rows(&result)
        .into_iter()
        .map(|r| r.into_iter().map(|v| v.as_i64().unwrap()).collect())
        .collect();
    assert_eq!(got, expected);
}

#[test]
fn tracer_and_rewrites_agree_on_every_figure3_query() {
    let db = figure3_db();
    for sql in [
        "SELECT * FROM r WHERE a = ANY (SELECT c FROM s)",
        "SELECT * FROM s WHERE c > ALL (SELECT a FROM r)",
        "SELECT * FROM r WHERE a = 3 OR NOT (a < ALL (SELECT c FROM s WHERE c <> 1))",
    ] {
        let (plan, _) = perm::sql::compile(&db, sql).unwrap();
        let tracer = Tracer::new(&db);
        let traced = tracer.trace(&plan).unwrap();
        for strategy in [Strategy::Gen, Strategy::Left, Strategy::Move] {
            let session = session(&db, strategy);
            let prepared = session.prepare_provenance_plan(&plan).unwrap();
            let result = session.execute(&prepared, &[]).unwrap();
            // Compare as sets of named rows (column order may differ).
            let names = traced.schema().names();
            let project = |rel: &Relation| -> Vec<Vec<Value>> {
                let positions: Vec<usize> = names
                    .iter()
                    .map(|&n| rel.schema().resolve(None, n).unwrap())
                    .collect();
                let mut out: Vec<Vec<Value>> = rel
                    .tuples()
                    .iter()
                    .map(|t| positions.iter().map(|&i| t.get(i).clone()).collect())
                    .collect();
                out.sort_by(|x, y| Tuple::new(x.clone()).sort_key(&Tuple::new(y.clone())));
                out.dedup_by(|x, y| Tuple::new(x.clone()).null_safe_eq(&Tuple::new(y.clone())));
                out
            };
            assert_eq!(
                project(&result),
                project(&traced),
                "{strategy} vs tracer on {sql}"
            );
        }
    }
}
