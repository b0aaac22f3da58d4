//! A seeded random SQL corpus over two small tables — the shared workload
//! of the differential tests.
//!
//! The single-threaded session differential test (the facade's
//! `tests/session_differential.rs`) and the concurrent differential test of
//! the serving subsystem (`perm-serve`) must exercise the *same* query
//! population: the concurrency bar is "N worker threads produce bag-identical
//! results and witnesses to single-threaded execution", which only means
//! something if both sides draw from one generator. This module is that
//! generator: nested-subquery SQL (`IN` / `NOT IN` / correlated `EXISTS` /
//! `NOT EXISTS` / scalar aggregates, correlated or not, one extra nesting
//! level, `ORDER BY` / `LIMIT` tails, and joins grouped or ordered by
//! qualified columns of either input) with `$1`-style parameters — bound to
//! integers, and now and then to `NULL` or a string — over the fixed
//! [`corpus_database`].

use perm_storage::{Database, Relation, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The two-table database every corpus query runs against: `r(a, b, g)` and
/// `s(c, d, g)` with a low-cardinality correlation attribute `g`.
pub fn corpus_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        "r",
        Relation::from_rows(
            Schema::from_names(&["a", "b", "g"]).with_qualifier("r"),
            (0..20)
                .map(|i| vec![Value::Int(i), Value::Int((i * 7) % 13), Value::Int(i % 4)])
                .collect(),
        ),
    )
    .expect("fresh database");
    db.create_table(
        "s",
        Relation::from_rows(
            Schema::from_names(&["c", "d", "g"]).with_qualifier("s"),
            (0..15)
                .map(|i| {
                    vec![
                        Value::Int(i * 2),
                        Value::Int((i * 5) % 11),
                        Value::Int(i % 4),
                    ]
                })
                .collect(),
        ),
    )
    .expect("fresh database");
    db
}

/// One corpus entry: a SQL text plus a deterministic pool of parameter
/// values to bind (take the first `param_count`-many, as reported by the
/// facade's prepared statement).
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// The generated SQL (may reference `$1`).
    pub sql: String,
    param_pool: Vec<Value>,
}

impl CorpusCase {
    /// The first `count` parameter values of this case's deterministic pool.
    ///
    /// # Panics
    /// If `count` exceeds the pool (4 values — the corpus grammar uses at
    /// most one distinct parameter).
    pub fn params(&self, count: usize) -> Vec<Value> {
        self.param_pool[..count].to_vec()
    }
}

/// Generates the corpus case for one seed. Same seed, same case — on every
/// thread, which is what lets the concurrent differential test compare
/// workers against a single-threaded reference case by case.
pub fn corpus_case(seed: u64) -> CorpusCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let sql = random_sql(&mut rng);
    // Comparisons are total across types: a `NULL` or mistyped binding must
    // come out the same through every path, so the pool holds some.
    let param_pool = (0..4)
        .map(|_| match rng.gen_range(0..8) {
            0 => Value::Null,
            1 => Value::str("seven"),
            _ => Value::Int(rng.gen_range(-5..25)),
        })
        .collect();
    CorpusCase { sql, param_pool }
}

/// A random scalar-vs-value operand: a literal, or `$1` (so parameters are
/// exercised throughout the grammar).
fn operand(rng: &mut StdRng) -> String {
    if rng.gen_range(0..4) == 0 {
        "$1".to_string()
    } else {
        format!("{}", rng.gen_range(-5..25))
    }
}

fn comparison(rng: &mut StdRng, column: &str) -> String {
    let op = ["<", "<=", ">", ">=", "=", "<>"][rng.gen_range(0..6usize)];
    format!("{column} {op} {}", operand(rng))
}

/// `s.g = r.g AND s.c ⟨op⟩ $1`: the body of a correlated sublink whose
/// selectivity is the parameter's.
fn correlated_on_param(rng: &mut StdRng) -> String {
    let op = ["<", "<=", ">", ">="][rng.gen_range(0..4usize)];
    format!("s.g = r.g AND s.c {op} $1")
}

/// A random subquery over `s`, possibly correlated on `r.g` and possibly
/// nested one level deeper.
fn subquery(rng: &mut StdRng, depth: usize) -> String {
    let mut preds: Vec<String> = Vec::new();
    if rng.gen_bool(0.5) {
        preds.push(comparison(rng, "s.c"));
    }
    if rng.gen_bool(0.5) {
        preds.push("s.g = r.g".to_string());
    }
    if depth > 0 && rng.gen_bool(0.4) {
        preds.push(format!(
            "s.d IN (SELECT b FROM r r2 WHERE {})",
            comparison(rng, "r2.a")
        ));
    }
    let where_clause = if preds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", preds.join(" AND "))
    };
    format!("SELECT c FROM s{where_clause}")
}

/// One random top-level query in the supported subset.
fn random_sql(rng: &mut StdRng) -> String {
    // Three queries in sixteen are joins whose `GROUP BY` / `ORDER BY` names
    // qualified columns — the binder resolves those against the FROM
    // clause's attributes, not against output names.
    match rng.gen_range(0..16) {
        0 => {
            return format!(
                "SELECT r.g, count(*) AS n FROM r, s WHERE r.g = s.g AND {} GROUP BY r.g",
                comparison(rng, "s.c")
            )
        }
        // A self-join on `g` fans every `x` row out over its group, so an
        // `ORDER BY` over it is all ties: the tails name a column of the
        // left input, of the right (descending), of both, two keys of the
        // left — now and then under a `LIMIT` that cuts through a tie.
        1 | 2 => {
            let order_by =
                ["x.b", "y.b DESC", "x.b, y.b", "x.g DESC, x.a"][rng.gen_range(0..4usize)];
            // `x.b, y.b` share the output name `b`, under a `LIMIT` too.
            let limit = if rng.gen_bool(0.3) { " LIMIT 7" } else { "" };
            return format!(
                "SELECT x.a, x.b, y.b FROM r x, r y WHERE x.g = y.g AND {} \
                 ORDER BY {order_by}{limit}",
                comparison(rng, "y.a")
            );
        }
        _ => {}
    }
    let mut preds: Vec<String> = Vec::new();
    if rng.gen_bool(0.6) {
        preds.push(comparison(rng, "a"));
    }
    match rng.gen_range(0..6) {
        0 => preds.push(format!("a IN ({})", subquery(rng, 1))),
        1 => preds.push(format!("a NOT IN ({})", subquery(rng, 1))),
        2 => preds.push(format!(
            "EXISTS (SELECT * FROM s WHERE s.g = r.g AND {})",
            comparison(rng, "s.c")
        )),
        3 => preds.push(format!(
            "b {} (SELECT min(d) FROM s WHERE {})",
            [">", "<"][rng.gen_range(0..2usize)],
            comparison(rng, "s.c")
        )),
        4 => preds.push(format!(
            "b < (SELECT avg(d) FROM s WHERE {})",
            correlated_on_param(rng)
        )),
        _ => preds.push(format!(
            "NOT EXISTS (SELECT * FROM s WHERE {})",
            correlated_on_param(rng)
        )),
    }
    let where_clause = format!(" WHERE {}", preds.join(" AND "));
    let tail = match rng.gen_range(0..3) {
        0 => " ORDER BY a",
        1 => " ORDER BY a LIMIT 7",
        _ => "",
    };
    format!("SELECT a, b FROM r{where_clause}{tail}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed() {
        for seed in 0..20u64 {
            let a = corpus_case(seed);
            let b = corpus_case(seed);
            assert_eq!(a.sql, b.sql);
            assert_eq!(a.params(4), b.params(4));
        }
        // And seeds actually vary the grammar.
        let distinct: std::collections::HashSet<String> =
            (0..20u64).map(|s| corpus_case(s).sql).collect();
        assert!(distinct.len() > 5);
    }

    #[test]
    fn the_differential_seeds_cover_every_shape_and_binding_type() {
        // The suites run seeds 0..80 and bind `params(1)` where `$1` occurs.
        let cases: Vec<CorpusCase> = (0..80).map(corpus_case).collect();
        for shape in [
            "a IN (",
            "a NOT IN (",
            "AND EXISTS (",
            "NOT EXISTS (",
            "(SELECT min(d)",
            "(SELECT avg(d)",
        ] {
            assert!(cases.iter().any(|c| c.sql.contains(shape)), "{shape}");
        }
        for tail in [
            "ORDER BY x.b",
            "ORDER BY y.b DESC",
            "ORDER BY x.b, y.b",
            "ORDER BY x.g DESC, x.a",
            "LIMIT 7",
        ] {
            assert!(
                cases
                    .iter()
                    .any(|c| c.sql.contains(" y WHERE ") && c.sql.contains(tail)),
                "{tail}"
            );
        }
        let bound: Vec<Value> = cases
            .iter()
            .filter(|c| c.sql.contains("$1"))
            .map(|c| c.params(1).remove(0))
            .collect();
        assert!(bound.contains(&Value::Null));
        assert!(bound.contains(&Value::str("seven")));
        assert!(bound.iter().any(|v| matches!(v, Value::Int(_))));
    }

    #[test]
    fn corpus_database_has_the_expected_shape() {
        let db = corpus_database();
        assert_eq!(db.table("r").unwrap().len(), 20);
        assert_eq!(db.table("s").unwrap().len(), 15);
    }
}
