//! Bag-semantics relations.
//!
//! The algebra of Figure 1 operates on bags (multi-sets). A [`Relation`]
//! stores its tuples in a `Vec`, so duplicates are represented by repetition;
//! multiplicity-aware helpers (`multiplicity`, `distinct`, bag
//! union/intersection/difference) implement the bag operators the executor
//! needs.
//!
//! The multiplicity-sensitive operators (`distinct`, bag/set intersection
//! and difference) hash on [`crate::keys::encode_tuple_key`], whose equality
//! coincides with [`Tuple::null_safe_eq`] — multiset counting in O(n + m)
//! instead of the O(n·m) pairwise scans a naive implementation needs.

use crate::keys::encode_tuple_key;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::{Result, StorageError};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A relation: a schema plus a bag of tuples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    schema: Schema,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Relation {
        Relation {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Creates a relation from a schema and tuples, validating arity.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Result<Relation> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(StorageError::ArityMismatch {
                    expected: schema.arity(),
                    found: t.arity(),
                });
            }
        }
        Ok(Relation { schema, tuples })
    }

    /// Creates a relation from a schema and tuples without arity validation
    /// (the executor's hot path, like [`Relation::push_unchecked`]: its rows
    /// were built for, or checked against, the schema they travel with).
    pub fn from_tuples_unchecked(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        Relation { schema, tuples }
    }

    /// Creates a relation from rows of values (convenient in tests and data
    /// generators). Panics on arity mismatch.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Relation {
        let tuples = rows.into_iter().map(Tuple::new).collect();
        Relation::new(schema, tuples).expect("row arity must match schema")
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples (with duplicates).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples including duplicates.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Appends a tuple, validating arity.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.schema.arity(),
                found: tuple.arity(),
            });
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Appends a tuple without arity validation (hot path for the executor,
    /// which constructs tuples from the schema it is building).
    pub fn push_unchecked(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
    }

    /// Consumes the relation and returns its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Consumes the relation and returns its schema and tuples.
    pub fn into_parts(self) -> (Schema, Vec<Tuple>) {
        (self.schema, self.tuples)
    }

    /// Multiplicity of `tuple` in the bag (null-safe comparison).
    pub fn multiplicity(&self, tuple: &Tuple) -> usize {
        self.tuples.iter().filter(|t| t.null_safe_eq(tuple)).count()
    }

    /// `true` when the bag contains `tuple` at least once.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.iter().any(|t| t.null_safe_eq(tuple))
    }

    /// Duplicate-removing copy (the set-projection / `DISTINCT` primitive).
    /// Keeps the first occurrence of each [`Tuple::null_safe_eq`] class.
    pub fn distinct(&self) -> Relation {
        Relation {
            schema: self.schema.clone(),
            tuples: distinct(&self.tuples),
        }
    }

    /// Returns the tuples sorted with [`Tuple::sort_key`]; useful for
    /// deterministic comparison of results in tests.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        let mut t = self.tuples.clone();
        t.sort_by(|a, b| a.sort_key(b));
        t
    }

    /// Bag equality: same schema arity and same tuples with the same
    /// multiplicities (order-insensitive).
    pub fn bag_eq(&self, other: &Relation) -> bool {
        if self.schema.arity() != other.schema.arity() || self.len() != other.len() {
            return false;
        }
        let a = self.sorted_tuples();
        let b = other.sorted_tuples();
        a.iter().zip(b.iter()).all(|(x, y)| x.null_safe_eq(y))
    }

    /// Set equality: same distinct tuples, ignoring multiplicities.
    pub fn set_eq(&self, other: &Relation) -> bool {
        let a = self.distinct();
        let b = other.distinct();
        a.len() == b.len() && a.tuples.iter().all(|t| b.contains(t))
    }
}

// The bag operators, over borrowed tuples: a caller holding rows it does not
// own (an executor reading a stored table in place) has only the result
// tuples copied.

/// Duplicate-removing copy of `tuples`: the first occurrence of each
/// [`Tuple::null_safe_eq`] class.
pub fn distinct(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut seen: HashSet<Vec<u8>> = HashSet::with_capacity(tuples.len());
    let mut out: Vec<Tuple> = Vec::new();
    for t in tuples {
        if seen.insert(encode_tuple_key(t)) {
            out.push(t.clone());
        }
    }
    out
}

/// Multiset count of `tuples`, keyed by their encoded tuple key (the hash
/// view the bag operators subtract from).
fn key_counts(tuples: &[Tuple]) -> HashMap<Vec<u8>, usize> {
    let mut counts: HashMap<Vec<u8>, usize> = HashMap::with_capacity(tuples.len());
    for t in tuples {
        *counts.entry(encode_tuple_key(t)).or_insert(0) += 1;
    }
    counts
}

/// Set of the encoded tuple keys of `tuples` (the hash view the set
/// operators probe for membership).
fn key_set(tuples: &[Tuple]) -> HashSet<Vec<u8>> {
    tuples.iter().map(encode_tuple_key).collect()
}

/// Bag union (`∪B`): multiplicities add up.
pub fn bag_union(l: &[Tuple], r: &[Tuple]) -> Vec<Tuple> {
    let mut tuples = Vec::with_capacity(l.len() + r.len());
    tuples.extend(l.iter().cloned());
    tuples.extend(r.iter().cloned());
    tuples
}

/// Set union (`∪S`): duplicates removed.
pub fn set_union(l: &[Tuple], r: &[Tuple]) -> Vec<Tuple> {
    distinct(&bag_union(l, r))
}

/// Bag intersection (`∩B`): multiplicity is the minimum of both sides. Keeps
/// the left side's tuples (representation and order), consuming one unit of
/// the right side's multiplicity per emitted tuple.
pub fn bag_intersect(l: &[Tuple], r: &[Tuple]) -> Vec<Tuple> {
    let mut remaining = key_counts(r);
    let mut tuples = Vec::new();
    for t in l {
        if let Some(n) = remaining.get_mut(&encode_tuple_key(t)) {
            if *n > 0 {
                *n -= 1;
                tuples.push(t.clone());
            }
        }
    }
    tuples
}

/// Set intersection (`∩S`): distinct left tuples present on the right.
pub fn set_intersect(l: &[Tuple], r: &[Tuple]) -> Vec<Tuple> {
    let present = key_set(r);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut tuples = Vec::new();
    for t in l {
        let key = encode_tuple_key(t);
        let keep = present.contains(&key);
        if seen.insert(key) && keep {
            tuples.push(t.clone());
        }
    }
    tuples
}

/// Bag difference (`−B`): multiplicities subtract (never below zero, i.e.
/// saturating).
pub fn bag_difference(l: &[Tuple], r: &[Tuple]) -> Vec<Tuple> {
    let mut remaining = key_counts(r);
    let mut tuples = Vec::new();
    for t in l {
        match remaining.get_mut(&encode_tuple_key(t)) {
            Some(n) if *n > 0 => *n -= 1,
            _ => tuples.push(t.clone()),
        }
    }
    tuples
}

/// Set difference (`−S`): distinct left tuples absent from the right.
pub fn set_difference(l: &[Tuple], r: &[Tuple]) -> Vec<Tuple> {
    let present = key_set(r);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut tuples = Vec::new();
    for t in l {
        let key = encode_tuple_key(t);
        let keep = !present.contains(&key);
        if seen.insert(key) && keep {
            tuples.push(t.clone());
        }
    }
    tuples
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

    /// The relation a bag operator makes of `l` and `r`, under `l`'s schema.
    fn apply(op: fn(&[Tuple], &[Tuple]) -> Vec<Tuple>, l: &Relation, r: &Relation) -> Relation {
        Relation::new(l.schema().clone(), op(l.tuples(), r.tuples())).expect("same arity")
    }

    fn rel(rows: Vec<Vec<i64>>) -> Relation {
        let schema = Schema::from_names(&["a", "b"]);
        Relation::from_rows(
            schema,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect())
                .collect(),
        )
    }

    #[test]
    fn new_validates_arity() {
        let schema = Schema::from_names(&["a", "b"]);
        assert!(Relation::new(schema.clone(), vec![tuple![1]]).is_err());
        assert!(Relation::new(schema, vec![tuple![1, 2]]).is_ok());
    }

    #[test]
    fn multiplicity_counts_duplicates() {
        let r = rel(vec![vec![1, 2], vec![1, 2], vec![3, 4]]);
        assert_eq!(r.multiplicity(&tuple![1, 2]), 2);
        assert_eq!(r.multiplicity(&tuple![3, 4]), 1);
        assert_eq!(r.multiplicity(&tuple![9, 9]), 0);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let r = rel(vec![vec![1, 2], vec![1, 2], vec![3, 4]]);
        let d = r.distinct();
        assert_eq!(d.len(), 2);
        assert!(d.contains(&tuple![1, 2]));
        assert!(d.contains(&tuple![3, 4]));
    }

    #[test]
    fn bag_union_adds_multiplicities() {
        let r = rel(vec![vec![1, 2]]);
        let s = rel(vec![vec![1, 2], vec![3, 4]]);
        let u = apply(super::bag_union, &r, &s);
        assert_eq!(u.multiplicity(&tuple![1, 2]), 2);
        assert_eq!(u.len(), 3);
        assert_eq!(apply(super::set_union, &r, &s).len(), 2);
    }

    #[test]
    fn bag_intersection_takes_minimum() {
        let r = rel(vec![vec![1, 2], vec![1, 2], vec![5, 6]]);
        let s = rel(vec![vec![1, 2], vec![7, 8]]);
        let i = apply(super::bag_intersect, &r, &s);
        assert_eq!(i.len(), 1);
        assert_eq!(i.multiplicity(&tuple![1, 2]), 1);
        assert_eq!(apply(super::set_intersect, &r, &s).len(), 1);
    }

    #[test]
    fn bag_difference_subtracts_multiplicities() {
        let r = rel(vec![vec![1, 2], vec![1, 2], vec![5, 6]]);
        let s = rel(vec![vec![1, 2]]);
        let d = apply(super::bag_difference, &r, &s);
        assert_eq!(d.multiplicity(&tuple![1, 2]), 1);
        assert_eq!(d.multiplicity(&tuple![5, 6]), 1);
        let sd = apply(super::set_difference, &r, &s);
        assert_eq!(sd.len(), 1);
        assert!(sd.contains(&tuple![5, 6]));
    }

    #[test]
    fn bag_eq_is_order_insensitive_but_multiplicity_sensitive() {
        let a = rel(vec![vec![1, 2], vec![3, 4]]);
        let b = rel(vec![vec![3, 4], vec![1, 2]]);
        let c = rel(vec![vec![1, 2], vec![1, 2], vec![3, 4]]);
        assert!(a.bag_eq(&b));
        assert!(!a.bag_eq(&c));
        assert!(a.set_eq(&c));
    }

    #[test]
    fn null_safe_containment() {
        let schema = Schema::from_names(&["a"]);
        let r = Relation::new(schema, vec![Tuple::new(vec![Value::Null])]).unwrap();
        assert!(r.contains(&Tuple::new(vec![Value::Null])));
        assert_eq!(r.multiplicity(&Tuple::new(vec![Value::Null])), 1);
    }

    /// The old O(n·m) scan implementations, kept as the reference semantics
    /// the hashed operators are differential-tested against.
    mod reference {
        use super::*;

        pub fn bag_intersect(l: &Relation, r: &Relation) -> Relation {
            let mut remaining: Vec<Tuple> = r.tuples().to_vec();
            let mut out = Relation::empty(l.schema().clone());
            for t in l.tuples() {
                if let Some(pos) = remaining.iter().position(|o| o.null_safe_eq(t)) {
                    remaining.swap_remove(pos);
                    out.push_unchecked(t.clone());
                }
            }
            out
        }

        pub fn bag_difference(l: &Relation, r: &Relation) -> Relation {
            let mut remaining: Vec<Tuple> = r.tuples().to_vec();
            let mut out = Relation::empty(l.schema().clone());
            for t in l.tuples() {
                if let Some(pos) = remaining.iter().position(|o| o.null_safe_eq(t)) {
                    remaining.swap_remove(pos);
                } else {
                    out.push_unchecked(t.clone());
                }
            }
            out
        }

        pub fn distinct(rel: &Relation) -> Relation {
            let mut out = Relation::empty(rel.schema().clone());
            for t in rel.tuples() {
                if !out.tuples().iter().any(|o| o.null_safe_eq(t)) {
                    out.push_unchecked(t.clone());
                }
            }
            out
        }

        pub fn set_intersect(l: &Relation, r: &Relation) -> Relation {
            let mut out = Relation::empty(l.schema().clone());
            for t in distinct(l).into_tuples() {
                if r.contains(&t) {
                    out.push_unchecked(t);
                }
            }
            out
        }

        pub fn set_difference(l: &Relation, r: &Relation) -> Relation {
            let mut out = Relation::empty(l.schema().clone());
            for t in distinct(l).into_tuples() {
                if !r.contains(&t) {
                    out.push_unchecked(t);
                }
            }
            out
        }
    }

    /// Deterministic duplicate-heavy relation over a tiny value domain with
    /// NULLs and cross-type spellings of equal values mixed in, so the
    /// hashed operators face multiplicities well above 1 and every
    /// `null_safe_eq` coercion class. Values are driven by a SplitMix64
    /// stream (self-contained; the storage crate has no rand dependency).
    fn duplicate_heavy(rows: usize, mut seed: u64) -> Relation {
        let mut next = move || {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut value = move || match next() % 6 {
            0 => Value::Null,
            1 => Value::Int((next() % 4) as i64),
            2 => Value::Float((next() % 4) as f64),
            3 => Value::Date((next() % 4) as i32),
            4 => Value::Bool(next() % 2 == 0),
            _ => Value::str(((next() % 3) as u8 + b'a').to_string()),
        };
        let schema = Schema::from_names(&["x", "y"]);
        let mut rel = Relation::empty(schema);
        for _ in 0..rows {
            rel.push_unchecked(Tuple::new(vec![value(), value()]));
        }
        rel
    }

    #[test]
    fn hashed_bag_ops_match_the_scan_reference_on_duplicate_heavy_inputs() {
        for seed in 0..8u64 {
            let l = duplicate_heavy(120, seed);
            let r = duplicate_heavy(90, seed.wrapping_add(1000));
            assert!(apply(super::bag_intersect, &l, &r).bag_eq(&reference::bag_intersect(&l, &r)));
            assert!(apply(super::bag_difference, &l, &r).bag_eq(&reference::bag_difference(&l, &r)));
            assert!(apply(super::set_intersect, &l, &r).bag_eq(&reference::set_intersect(&l, &r)));
            assert!(apply(super::set_difference, &l, &r).bag_eq(&reference::set_difference(&l, &r)));
            assert!(l.distinct().bag_eq(&reference::distinct(&l)));
        }
    }

    #[test]
    fn hashed_bag_ops_honour_min_and_saturating_subtract_multiplicities() {
        let l = duplicate_heavy(150, 7);
        let r = duplicate_heavy(100, 99);
        let inter = apply(super::bag_intersect, &l, &r);
        let diff = apply(super::bag_difference, &l, &r);
        for t in l.distinct().tuples() {
            let (nl, nr) = (l.multiplicity(t), r.multiplicity(t));
            assert_eq!(inter.multiplicity(t), nl.min(nr), "min multiplicity of {t}");
            assert_eq!(
                diff.multiplicity(t),
                nl.saturating_sub(nr),
                "saturating-subtract multiplicity of {t}"
            );
        }
        // The bag laws tie the two together: |l| = |l ∩B r| + |l −B r|.
        assert_eq!(l.len(), inter.len() + diff.len());
    }

    #[test]
    fn nan_is_one_equality_class_across_scan_and_hashed_ops() {
        // Stored NaNs (the engine's arithmetic never produces one, but
        // ingestion accepts them) form a single null_safe_eq class with
        // PostgreSQL semantics, so the hashed operators and the scan-based
        // multiplicity/contains helpers must agree on them.
        let schema = Schema::from_names(&["x"]);
        let r = Relation::from_rows(
            schema.clone(),
            vec![
                vec![Value::Float(f64::NAN)],
                vec![Value::Float(-f64::NAN)],
                vec![Value::Float(1.5)],
            ],
        );
        let nan = Tuple::new(vec![Value::Float(f64::NAN)]);
        assert_eq!(r.multiplicity(&nan), 2);
        assert!(r.contains(&nan));
        assert_eq!(r.distinct().len(), 2);
        let s = Relation::from_rows(schema, vec![vec![Value::Float(f64::NAN)]]);
        assert_eq!(apply(super::bag_intersect, &r, &s).len(), 1);
        assert_eq!(apply(super::bag_difference, &r, &s).len(), 2);
        assert_eq!(apply(super::set_intersect, &r, &s).len(), 1);
        assert_eq!(apply(super::set_difference, &r, &s).len(), 1);
    }

    #[test]
    fn hashed_set_ops_cross_type_equality_matches_null_safe_eq() {
        // Int(2), Float(2.0) and Date(2) are one null_safe_eq class: the
        // hashed key must merge them, exactly like the scan implementation.
        let schema = Schema::from_names(&["x"]);
        let l = Relation::from_rows(
            schema.clone(),
            vec![
                vec![Value::Int(2)],
                vec![Value::Float(2.0)],
                vec![Value::Null],
                vec![Value::Int(5)],
            ],
        );
        let r = Relation::from_rows(schema, vec![vec![Value::Date(2)], vec![Value::Null]]);
        let inter = apply(super::set_intersect, &l, &r);
        assert_eq!(inter.len(), 2);
        assert!(inter.contains(&Tuple::new(vec![Value::Int(2)])));
        assert!(inter.contains(&Tuple::new(vec![Value::Null])));
        let diff = apply(super::set_difference, &l, &r);
        assert_eq!(diff.len(), 1);
        assert!(diff.contains(&Tuple::new(vec![Value::Int(5)])));
        // Bag intersection consumes right-side multiplicity across the
        // class: only one of the two spellings of "2" survives.
        assert_eq!(apply(super::bag_intersect, &l, &r).len(), 2);
        assert_eq!(apply(super::bag_difference, &l, &r).len(), 2);
    }
}
