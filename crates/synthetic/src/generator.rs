//! Generator for the synthetic Gaussian tables.

use perm_storage::{Attribute, DataType, Relation, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of one synthetic table.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Number of tuples.
    pub rows: usize,
    /// Mean of the Gaussian distribution the attribute values are drawn from.
    pub mean: f64,
    /// Random seed.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Creates a configuration with the paper's parameters: fixed mean and a
    /// standard deviation of 100 × the table size (applied in
    /// [`generate_table`]).
    pub fn new(rows: usize, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            rows,
            mean: 0.0,
            seed,
        }
    }
}

/// Samples a standard normal variate with the Box–Muller transform (keeps the
/// dependency footprint to `rand` itself).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Number of distinct values of the low-cardinality correlation attribute
/// `g`. Correlated sublink workloads (the `q3` query) bind on `g`, so a
/// memoizing executor runs each sublink at most this many times (plus once
/// per distinct NULL-free binding absent from the table) however large the
/// outer relation grows.
pub const CORRELATION_GROUPS: i64 = 32;

/// Generates one synthetic table with schema `(a, b, g)` qualified by
/// `name`. `a` and `b` are Gaussian with the configured mean and a standard
/// deviation of 100 × the table size, rounded to integers (Section 4.2.2);
/// `g` is uniform over `0..CORRELATION_GROUPS` and parameterises the
/// correlated-sublink workload.
pub fn generate_table(name: &str, config: SyntheticConfig) -> Relation {
    let schema = Schema::new(vec![
        Attribute::qualified(name, "a", DataType::Int),
        Attribute::qualified(name, "b", DataType::Int),
        Attribute::qualified(name, "g", DataType::Int),
    ]);
    let std_dev = 100.0 * config.rows as f64;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut relation = Relation::empty(schema);
    for _ in 0..config.rows {
        let a = config.mean + standard_normal(&mut rng) * std_dev;
        let b = config.mean + standard_normal(&mut rng) * std_dev;
        let g = rng.gen_range(0..CORRELATION_GROUPS);
        relation.push_unchecked(Tuple::new(vec![
            Value::Int(a.round() as i64),
            Value::Int(b.round() as i64),
            Value::Int(g),
        ]));
    }
    relation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_number_of_rows() {
        let r = generate_table("r1", SyntheticConfig::new(250, 7));
        assert_eq!(r.len(), 250);
        assert_eq!(
            r.schema().names(),
            ["a", "b", "g"].map(perm_storage::Name::from)
        );
    }

    #[test]
    fn correlation_attribute_is_low_cardinality() {
        let r = generate_table("r1", SyntheticConfig::new(1000, 5));
        let mut groups: Vec<i64> = r
            .tuples()
            .iter()
            .map(|t| t.get(2).as_i64().unwrap())
            .collect();
        groups.sort_unstable();
        groups.dedup();
        assert!(groups.len() as i64 <= CORRELATION_GROUPS);
        assert!(groups.iter().all(|g| (0..CORRELATION_GROUPS).contains(g)));
        // 1000 draws over 32 groups should hit (nearly) all of them.
        assert!(groups.len() >= 24, "got only {} groups", groups.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_table("r1", SyntheticConfig::new(100, 3));
        let b = generate_table("r1", SyntheticConfig::new(100, 3));
        assert!(a.bag_eq(&b));
        let c = generate_table("r1", SyntheticConfig::new(100, 4));
        assert!(!a.bag_eq(&c));
    }

    #[test]
    fn values_spread_with_table_size() {
        // The standard deviation is proportional to the table size, so the
        // spread of a larger table must be wider.
        let spread = |rows: usize| {
            let r = generate_table("r", SyntheticConfig::new(rows, 11));
            let values: Vec<i64> = r
                .tuples()
                .iter()
                .map(|t| t.get(0).as_i64().unwrap())
                .collect();
            (*values.iter().max().unwrap() - *values.iter().min().unwrap()) as f64
        };
        assert!(spread(500) > spread(50));
    }
}
