//! The two parameterised synthetic queries of Section 4.2.2.

use crate::generator::{generate_table, SyntheticConfig};
use perm_algebra::builder::{
    all_sublink, and, any_sublink, between, eq, exists_sublink, lit, qcol, PlanBuilder,
};
use perm_algebra::{CompareOp, Plan};
use perm_storage::{Database, Relation, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the synthetic query shapes to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// `q1`: equality `ANY` sublink.
    Q1EqualityAny,
    /// `q2`: inequality `ALL` sublink.
    Q2InequalityAll,
    /// `q3`: correlated `EXISTS` sublink binding on the low-cardinality
    /// group attribute `g` — the workload that shows the effect of the
    /// executor's parameterized sublink memo on a Fig. 7-style sweep.
    Q3CorrelatedExists,
}

/// The random range predicates applied to both tables (`range` on `R1.b`,
/// `range2` on `R2.b`), each selecting a window of fixed width.
#[derive(Debug, Clone, Copy)]
pub struct RangeParams {
    /// Lower bound of the `R1` window.
    pub r1_low: i64,
    /// Upper bound of the `R1` window.
    pub r1_high: i64,
    /// Lower bound of the `R2` window.
    pub r2_low: i64,
    /// Upper bound of the `R2` window.
    pub r2_high: i64,
}

/// Draws a random range parameterisation for tables of the given sizes: each
/// window has a fixed relative width so the selected fraction of each table
/// stays roughly constant as table sizes grow (as in the paper's setup).
pub fn random_range(r1_rows: usize, r2_rows: usize, seed: u64) -> RangeParams {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = |rows: usize, rng: &mut StdRng| {
        let std_dev = 100.0 * rows as f64;
        // A window of one quarter standard deviation keeps selectivity
        // roughly constant across sizes.
        let width = (0.25 * std_dev) as i64;
        let low = (rng.gen_range(-1.0..1.0) * std_dev) as i64;
        (low, low + width)
    };
    let (r1_low, r1_high) = window(r1_rows, &mut rng);
    let (r2_low, r2_high) = window(r2_rows, &mut rng);
    RangeParams {
        r1_low,
        r1_high,
        r2_low,
        r2_high,
    }
}

/// Builds a database with the two synthetic tables `r1` and `r2`.
pub fn build_database(r1_rows: usize, r2_rows: usize, seed: u64) -> Database {
    let mut db = Database::new();
    db.create_or_replace_table(
        "r1",
        generate_table("r1", SyntheticConfig::new(r1_rows, seed)),
    );
    db.create_or_replace_table(
        "r2",
        generate_table("r2", SyntheticConfig::new(r2_rows, seed.wrapping_add(1))),
    );
    db
}

/// [`build_database`] with `a ← a mod 4·|R2|` on both tables. The generator
/// draws `a` from a Gaussian with σ = 100 × rows, so on the raw column
/// `r1.a = r2.a` practically never holds and `q1` is empty under every
/// strategy; the remap gives about a fifth of `r1` a partner.
pub fn build_matching_database(r1_rows: usize, r2_rows: usize, seed: u64) -> Database {
    let mut db = build_database(r1_rows, r2_rows, seed);
    let modulus = 4 * r2_rows as i64;
    for table in ["r1", "r2"] {
        let rel = db.table(table).expect("build_database creates r1 and r2");
        let rows = rel
            .tuples()
            .iter()
            .map(|t| {
                let mut values = t.values().to_vec();
                let a = values[0].as_i64().expect("a is an integer column");
                values[0] = Value::Int(a.rem_euclid(modulus));
                values
            })
            .collect();
        let remapped = Relation::from_rows(rel.schema().clone(), rows);
        db.create_or_replace_table(table, remapped);
    }
    db
}

/// `q1 = σ_{range ∧ a = ANY (Π_a(σ_{range2}(R2)))}(R1)`.
pub fn query_q1(db: &Database, params: RangeParams) -> Plan {
    build_query(db, params, QueryKind::Q1EqualityAny)
}

/// `q2 = σ_{range ∧ a < ALL (Π_a(σ_{range2}(R2)))}(R1)`.
pub fn query_q2(db: &Database, params: RangeParams) -> Plan {
    build_query(db, params, QueryKind::Q2InequalityAll)
}

/// `q3 = σ_{EXISTS(σ_{range2 ∧ g = R1.g}(R2))}(R1)`.
///
/// Unlike `q1`/`q2` there is no range predicate on the outer relation: the
/// point of `q3` is that a naive executor evaluates the correlated sublink
/// once per outer tuple (cost ∝ |R1|), while a memoizing executor evaluates
/// it once per distinct `g` binding (cost ∝ min(|R1|,
/// [`crate::generator::CORRELATION_GROUPS`])).
pub fn query_q3(db: &Database, params: RangeParams) -> Plan {
    build_query(db, params, QueryKind::Q3CorrelatedExists)
}

/// Builds one of the synthetic queries.
pub fn build_query(db: &Database, params: RangeParams, kind: QueryKind) -> Plan {
    if kind == QueryKind::Q3CorrelatedExists {
        // The sublink is *correlated*: it binds R1's group attribute, so
        // only Gen (and the memoizing executor) can exploit it.
        let sublink_query = PlanBuilder::scan(db, "r2")
            .expect("r2 must exist")
            .select(and(
                between(qcol("r2", "b"), lit(params.r2_low), lit(params.r2_high)),
                eq(qcol("r2", "g"), qcol("r1", "g")),
            ))
            .build();
        return PlanBuilder::scan(db, "r1")
            .expect("r1 must exist")
            .select(exists_sublink(sublink_query))
            .build();
    }
    let sublink_query = PlanBuilder::scan(db, "r2")
        .expect("r2 must exist")
        .select(between(
            qcol("r2", "b"),
            lit(params.r2_low),
            lit(params.r2_high),
        ))
        .project_columns(&["a"])
        .build();
    let sublink = match kind {
        QueryKind::Q1EqualityAny => any_sublink(qcol("r1", "a"), CompareOp::Eq, sublink_query),
        QueryKind::Q2InequalityAll => all_sublink(qcol("r1", "a"), CompareOp::Lt, sublink_query),
        QueryKind::Q3CorrelatedExists => unreachable!("handled above"),
    };
    let range = between(qcol("r1", "b"), lit(params.r1_low), lit(params.r1_high));
    // The range predicate and the sublink are applied as two stacked
    // selections (σ_sublink(σ_range(R1))), which is equivalent to the single
    // conjunctive selection of the paper and lets the Unn rule U2 (whose
    // pattern is a selection containing *only* the sublink) fire for q1, as
    // in the paper's experiments.
    PlanBuilder::scan(db, "r1")
        .expect("r1 must exist")
        .select(range)
        .select(sublink)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_core::{ProvenanceQuery, Strategy};
    use perm_exec::Executor;

    #[test]
    fn queries_execute_and_all_strategies_apply_where_expected() {
        let db = build_database(200, 100, 9);
        let params = random_range(200, 100, 5);
        let q1 = query_q1(&db, params);
        let q2 = query_q2(&db, params);
        let q3 = query_q3(&db, params);
        let executor = Executor::new(&db);
        executor.execute(&q1).unwrap();
        executor.execute(&q2).unwrap();
        executor.execute(&q3).unwrap();

        let q1_strategies = ProvenanceQuery::new(&db, &q1).applicable_strategies();
        assert_eq!(
            q1_strategies,
            vec![Strategy::Gen, Strategy::Left, Strategy::Move, Strategy::Unn]
        );
        let q2_strategies = ProvenanceQuery::new(&db, &q2).applicable_strategies();
        assert_eq!(
            q2_strategies,
            vec![Strategy::Gen, Strategy::Left, Strategy::Move]
        );
        // q3's sublink is correlated, so only Gen applies.
        let q3_strategies = ProvenanceQuery::new(&db, &q3).applicable_strategies();
        assert_eq!(q3_strategies, vec![Strategy::Gen]);
    }

    #[test]
    fn q3_memoization_bends_the_operator_count() {
        let db = build_database(400, 200, 9);
        let params = random_range(400, 200, 5);
        let q3 = query_q3(&db, params);

        let memoized = Executor::new(&db);
        let with_memo = memoized.execute(&q3).unwrap();
        let ops_on = memoized.operators_evaluated();

        let unmemoized = Executor::new(&db).with_sublink_memo(false);
        let without_memo = unmemoized.execute(&q3).unwrap();
        let ops_off = unmemoized.operators_evaluated();

        assert!(with_memo.bag_eq(&without_memo));
        // 400 outer tuples bind at most CORRELATION_GROUPS distinct values.
        assert!(
            ops_off >= 5 * ops_on,
            "expected ≥5× fewer operator evaluations with the memo: {ops_on} on vs {ops_off} off"
        );
    }

    #[test]
    fn q1_admits_the_unn_rewrite() {
        // The Unn rule U2 requires the selection condition to be exactly the
        // equality ANY sublink; the builder therefore stacks the range
        // predicate as a separate selection below it.
        let db = build_database(50, 30, 2);
        let params = random_range(50, 30, 3);
        let q1 = query_q1(&db, params);
        let strategies = ProvenanceQuery::new(&db, &q1).applicable_strategies();
        assert!(strategies.contains(&Strategy::Unn));
    }

    #[test]
    fn provenance_of_q1_points_back_to_matching_r2_tuples() {
        let db = build_database(80, 60, 21);
        let params = random_range(80, 60, 22);
        let q1 = query_q1(&db, params);
        let rewritten = ProvenanceQuery::new(&db, &q1)
            .strategy(Strategy::Move)
            .rewrite()
            .unwrap();
        let result = Executor::new(&db).execute(rewritten.plan()).unwrap();
        let schema = result.schema();
        let a = schema.resolve(None, "a".into()).unwrap();
        let prov_a = schema.resolve(None, "prov_r2_a".into()).unwrap();
        for tuple in result.tuples() {
            if !tuple.get(prov_a).is_null() {
                // The contributing R2 tuple must satisfy the equality that
                // made the ANY sublink true.
                assert!(tuple.get(a).null_safe_eq(tuple.get(prov_a)));
            }
        }
    }
}
