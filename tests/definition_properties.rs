//! Randomized-property tests of the core invariants, over seeded randomly
//! generated small relations and sublink queries (the build environment has
//! no proptest, so the cases are driven by the deterministic `rand` shim):
//!
//! 1. **Result preservation** (Theorem 4): the rewritten query restricted to
//!    the original attributes produces exactly the original result tuples.
//! 2. **Strategy/tracer agreement**: every applicable rewrite strategy
//!    produces the same provenance (as a set of extended tuples) as the
//!    tracer, which implements the closed-form characterisation of Figure 2
//!    directly.
//! 3. **Definition 1 vs. Figure 2** on single-sublink selections: the
//!    brute-force maximal-witness enumeration of Definition 1 yields at
//!    least one witness per result tuple, and the rewrite's sublink
//!    provenance is contained in one of them (Definition 2 only shrinks the
//!    sets).

use perm_algebra::builder::{all_sublink, any_sublink, col, exists_sublink, not, PlanBuilder};
use perm_algebra::{CompareOp, Plan};
use perm_core::definition::BruteForce;
use perm_core::tracer::Tracer;
use perm_core::{ProvenanceQuery, Strategy as RewriteStrategy};
use perm_exec::Executor;
use perm_storage::{Database, Name, Relation, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small relation over one integer attribute with values in 0..6 so that
/// sublink comparisons hit interesting overlaps.
fn small_relation(rng: &mut StdRng, name: &str, attr: &str, max_rows: usize) -> Relation {
    let rows = rng.gen_range(0..=max_rows);
    Relation::from_rows(
        Schema::from_names(&[attr]).with_qualifier(name),
        (0..rows)
            .map(|_| vec![Value::Int(rng.gen_range(0..6i64))])
            .collect(),
    )
}

/// The sublink shapes exercised by the property tests.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Any(CompareOp),
    All(CompareOp),
    Exists,
    NotAny(CompareOp),
}

const SHAPES: [Shape; 7] = [
    Shape::Any(CompareOp::Eq),
    Shape::Any(CompareOp::Lt),
    Shape::Any(CompareOp::Ge),
    Shape::All(CompareOp::Lt),
    Shape::All(CompareOp::Neq),
    Shape::Exists,
    Shape::NotAny(CompareOp::Eq),
];

fn build_db(r: Relation, s: Relation) -> Database {
    let mut db = Database::new();
    db.create_or_replace_table("pr", r);
    db.create_or_replace_table("ps", s);
    db
}

fn build_query(db: &Database, shape: Shape) -> Plan {
    let sub = PlanBuilder::scan(db, "ps").unwrap().build();
    let condition = match shape {
        Shape::Any(op) => any_sublink(col("x"), op, sub),
        Shape::All(op) => all_sublink(col("x"), op, sub),
        Shape::Exists => exists_sublink(sub),
        Shape::NotAny(op) => not(any_sublink(col("x"), op, sub)),
    };
    PlanBuilder::scan(db, "pr")
        .unwrap()
        .select(condition)
        .build()
}

/// Distinct named rows of a relation, for order-insensitive comparison.
fn named_rows(rel: &Relation, names: &[Name]) -> Vec<Vec<Value>> {
    let positions: Vec<usize> = names
        .iter()
        .map(|&n| rel.schema().resolve(None, n).unwrap())
        .collect();
    let mut out: Vec<Vec<Value>> = rel
        .tuples()
        .iter()
        .map(|t| positions.iter().map(|&i| t.get(i).clone()).collect())
        .collect();
    out.sort_by(|a, b| Tuple::new(a.clone()).sort_key(&Tuple::new(b.clone())));
    out.dedup_by(|a, b| Tuple::new(a.clone()).null_safe_eq(&Tuple::new(b.clone())));
    out
}

#[test]
fn rewrites_preserve_results_and_agree_with_the_tracer() {
    let mut rng = StdRng::seed_from_u64(0x9e2d);
    for case in 0..48 {
        let r = small_relation(&mut rng, "pr", "x", 4);
        let s = small_relation(&mut rng, "ps", "y", 4);
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let db = build_db(r, s);
        let plan = build_query(&db, shape);
        let executor = Executor::new(&db);
        let original = executor.execute(&plan).unwrap();

        let tracer = Tracer::new(&db);
        let traced = tracer.trace(&plan).unwrap();
        let prov_names = traced.schema().names();
        let reference = named_rows(&traced, &prov_names);

        for strategy in RewriteStrategy::ALL {
            let rewritten = match ProvenanceQuery::new(&db, &plan)
                .strategy(strategy)
                .rewrite()
            {
                Ok(rw) => rw,
                Err(perm_core::ProvenanceError::NotApplicable { .. }) => continue,
                Err(other) => panic!("case {case} ({shape:?}): {strategy}: {other}"),
            };
            let result = executor.execute(rewritten.plan()).unwrap();

            // (1) Result preservation.
            let original_names = original.schema().names();
            assert_eq!(
                named_rows(&result, &original_names),
                named_rows(&original, &original_names),
                "case {case} ({shape:?}): {strategy} does not preserve the result"
            );

            // (2) Agreement with the tracer.
            assert_eq!(
                named_rows(&result, &prov_names),
                reference,
                "case {case} ({shape:?}): {strategy} disagrees with the tracer"
            );
        }
    }
}

#[test]
fn definition1_witnesses_match_the_rewrite_provenance_for_single_sublinks() {
    let shapes = [
        Shape::Any(CompareOp::Eq),
        Shape::Any(CompareOp::Lt),
        Shape::All(CompareOp::Lt),
        Shape::Exists,
    ];
    let mut rng = StdRng::seed_from_u64(0x51ab);
    for case in 0..24 {
        // Keep the brute force tractable: at most 4 rows per relation.
        let r = small_relation(&mut rng, "pr", "x", 4);
        let s = small_relation(&mut rng, "ps", "y", 4);
        let shape = shapes[rng.gen_range(0..shapes.len())];
        let db = build_db(r.clone(), s.clone());
        let plan = build_query(&db, shape);
        let executor = Executor::new(&db);
        let original = executor.execute(&plan).unwrap();
        let checker = BruteForce::new(&db, &plan).input("pr").sublink_input("ps");

        // Provenance according to the rewrites, grouped per result tuple.
        let rewritten = ProvenanceQuery::new(&db, &plan)
            .strategy(RewriteStrategy::Gen)
            .rewrite()
            .unwrap();
        let prov = executor.execute(rewritten.plan()).unwrap();
        let prov_schema = prov.schema();
        let x = prov_schema.resolve(None, "x".into()).unwrap();
        let prov_y = prov_schema.resolve(None, "prov_ps_y".into()).unwrap();

        for tuple in original.distinct().tuples() {
            let witnesses = checker.definition1_witnesses(tuple).unwrap();
            // For single-sublink queries Definition 1 yields at least one
            // maximal witness; under reqtrue/reqfalse roles it is unique.
            assert!(
                !witnesses.is_empty(),
                "case {case} ({shape:?}): no Definition 1 witness"
            );

            // The rewrite's sublink provenance for this tuple.
            let mut from_rewrite: Vec<Value> = prov
                .tuples()
                .iter()
                .filter(|p| p.get(x).null_safe_eq(tuple.get(0)))
                .map(|p| p.get(prov_y).clone())
                .filter(|v| !v.is_null())
                .collect();
            from_rewrite.sort_by(|a, b| a.sort_key(b));
            from_rewrite.dedup_by(|a, b| a.null_safe_eq(b));

            // Under Definition 2 the sublink provenance is contained in some
            // Definition 1 maximal witness (Definition 2 only adds condition
            // 3, which shrinks or keeps the sets).
            let contained_somewhere = witnesses.iter().any(|witness| {
                from_rewrite
                    .iter()
                    .all(|v| witness[1].tuples().iter().any(|t| t.get(0).null_safe_eq(v)))
            });
            assert!(
                contained_somewhere,
                "case {case} ({shape:?}): rewrite provenance {from_rewrite:?} not contained in \
                 any Definition 1 witness"
            );
        }
    }
}

#[test]
fn brute_force_definition2_is_unique_where_definition1_is_not() {
    // Deterministic companion to the property tests: the Section 2.5 example
    // (scaled down) has several Definition 1 witnesses but exactly one under
    // Definition 2. This exercises the checker end-to-end from this crate.
    let mut db = Database::new();
    db.create_or_replace_table(
        "pr",
        Relation::from_rows(
            Schema::from_names(&["x"]).with_qualifier("pr"),
            (1..=4).map(|i| vec![Value::Int(i)]).collect(),
        ),
    );
    db.create_or_replace_table(
        "ps",
        Relation::from_rows(
            Schema::from_names(&["y"]).with_qualifier("ps"),
            vec![vec![Value::Int(1)], vec![Value::Int(4)]],
        ),
    );
    db.create_or_replace_table(
        "pu",
        Relation::from_rows(
            Schema::from_names(&["a"]).with_qualifier("pu"),
            vec![vec![Value::Int(4)]],
        ),
    );
    let c1 = any_sublink(
        col("a"),
        CompareOp::Eq,
        PlanBuilder::scan(&db, "pr").unwrap().build(),
    );
    let c2 = all_sublink(
        col("a"),
        CompareOp::Gt,
        PlanBuilder::scan(&db, "ps").unwrap().build(),
    );
    let plan = PlanBuilder::scan(&db, "pu")
        .unwrap()
        .select(perm_algebra::builder::or(c1.clone(), c2.clone()))
        .build();
    let checker = BruteForce::new(&db, &plan)
        .input("pu")
        .sublink_input("pr")
        .sublink_input("ps");
    let t = Tuple::new(vec![Value::Int(4)]);
    let def1 = checker.definition1_witnesses(&t).unwrap();
    assert!(def1.len() > 1, "Definition 1 must be ambiguous here");
    let input_schema = Schema::from_names(&["a"]).with_qualifier("pu");
    let def2 = checker
        .definition2_witnesses(&t, &[c1, c2], &input_schema)
        .unwrap();
    assert_eq!(def2.len(), 1, "Definition 2 must be unique");
}
