//! The in-memory catalog: a named collection of base relations.
//!
//! Base relations are stored behind [`Arc`], for two reasons that matter to
//! the concurrent serving subsystem:
//!
//! * **Cheap snapshots.** Cloning a [`Database`] clones the catalog map and
//!   the `Arc`s, not the tuple data — a measurement harness (or a serving
//!   front end) can hand each worker its own `Database` value in O(#tables).
//! * **Cross-thread sharing.** Every type in this crate is plain data
//!   (`Send + Sync`, no interior mutability), so one `Database` can be read
//!   concurrently from many executor threads; the `Arc` makes the same true
//!   for snapshots taken at different times.
//!
//! A stored entry holds the relation and, beside it, its [`TableLanes`]:
//! one typed [`ColumnVec`] lane per column whose values are uniformly
//! `Int`, `Float`, `Date` or `Bool` (NULLs allowed), built once when the
//! table enters the catalog and shared behind their own `Arc`. A scan hands
//! them to the operator above it, which reads each batch's columns as lane
//! slices instead of transposing them out of the row-major tuples.
//! `Str`, mixed-type and all-NULL columns have no lane.
//!
//! Mutation stays copy-on-write at the granularity of whole tables:
//! [`Database::create_table`] and friends replace the entry — relation and
//! lanes, rebuilt from the new rows on every replace — and never mutate one
//! other readers might hold. Each of them also gives the database a fresh
//! [`Database::version`], which is how a cached result computed over one
//! state of the data is told apart from another.

use crate::column::ColumnVec;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::{Result, StorageError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of database versions: one process-wide counter, so no two
/// mutations anywhere in the process produce the same version.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

/// An in-memory database: a mapping from (case-insensitive) relation names to
/// base relations. This plays the role of the PostgreSQL catalog + heap in
/// the original Perm implementation.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: BTreeMap<String, Stored>,
    version: u64,
}

/// One catalog entry: a base relation and the typed lanes built from it.
#[derive(Debug, Clone)]
struct Stored {
    relation: Arc<Relation>,
    lanes: Arc<TableLanes>,
}

impl Stored {
    fn new(relation: Relation) -> Stored {
        Stored {
            lanes: Arc::new(TableLanes::build(&relation)),
            relation: Arc::new(relation),
        }
    }
}

/// The typed lanes of a stored table: lane `i` holds column `i` of every
/// stored row, in row order, when the column has one (see the module docs).
#[derive(Debug, Default)]
pub struct TableLanes {
    lanes: Vec<Option<ColumnVec>>,
}

impl TableLanes {
    /// The lanes of `relation`'s columns, transposed from its rows; none
    /// when a row does not have the schema's arity (a relation built
    /// unchecked), which a scan refuses before reading a column.
    pub fn build(relation: &Relation) -> TableLanes {
        let (rows, arity) = (relation.tuples(), relation.schema().arity());
        if rows.iter().any(|t| t.arity() != arity) {
            return TableLanes::default();
        }
        let lanes = (0..arity)
            .map(|i| ColumnVec::stored_lane(rows.iter().map(|t| t.get(i))))
            .collect();
        TableLanes { lanes }
    }

    /// The lane of column `column`, if it has one.
    pub fn lane(&self, column: usize) -> Option<&ColumnVec> {
        self.lanes.get(column)?.as_ref()
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// The version of the contents: 0 for a new database, and a fresh
    /// process-unique value after every mutation. A clone keeps its
    /// version, so two databases with equal versions hold equal contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn bump_version(&mut self) {
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a base relation. Fails if the name is already taken.
    pub fn create_table(&mut self, name: impl Into<String>, relation: Relation) -> Result<()> {
        let key = name.into().to_ascii_lowercase();
        if self.relations.contains_key(&key) {
            return Err(StorageError::DuplicateRelation(key));
        }
        self.relations.insert(key, Stored::new(relation));
        self.bump_version();
        Ok(())
    }

    /// Registers or replaces a base relation, rebuilding its lanes.
    pub fn create_or_replace_table(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations
            .insert(name.into().to_ascii_lowercase(), Stored::new(relation));
        self.bump_version();
    }

    /// Removes a base relation, returning it if present. When the relation
    /// is still shared (e.g. by a snapshot), the returned value is a clone;
    /// otherwise the allocation is recovered without copying.
    pub fn drop_table(&mut self, name: &str) -> Option<Relation> {
        self.bump_version();
        self.relations
            .remove(&name.to_ascii_lowercase())
            .map(|stored| {
                Arc::try_unwrap(stored.relation).unwrap_or_else(|shared| (*shared).clone())
            })
    }

    /// Looks up a base relation.
    pub fn table(&self, name: &str) -> Result<&Relation> {
        self.stored(name).map(|stored| stored.relation.as_ref())
    }

    /// Looks up the typed lanes of a base relation.
    pub fn table_lanes(&self, name: &str) -> Result<&TableLanes> {
        self.stored(name).map(|stored| stored.lanes.as_ref())
    }

    fn stored(&self, name: &str) -> Result<&Stored> {
        self.relations
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Looks up a base relation as a shared handle: a clone of the `Arc`,
    /// never of the tuples, for callers that need the relation to outlive
    /// the catalog borrow — e.g. handing a table snapshot to another
    /// thread while the catalog keeps evolving copy-on-write.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Relation>> {
        self.stored(name).map(|stored| Arc::clone(&stored.relation))
    }

    /// Looks up the schema of a base relation.
    pub fn table_schema(&self, name: &str) -> Result<&Schema> {
        self.table(name).map(|r| r.schema())
    }

    /// `true` when a relation with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.relations.contains_key(&name.to_ascii_lowercase())
    }

    /// Names of all registered relations (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Total number of tuples across all relations; handy for reporting the
    /// "database size" axis of the experiments.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|s| s.relation.len()).sum()
    }
}

// The concurrency contract of the storage layer, checked at compile time:
// a `Database` (and everything reachable from it) can be shared across
// threads by reference. The executor builds its own (deliberately
// single-threaded) state on top; the *data* is never the reason a layer
// above cannot parallelise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
    assert_send_sync::<Relation>();
    assert_send_sync::<TableLanes>();
    assert_send_sync::<Schema>();
    assert_send_sync::<crate::tuple::Tuple>();
    assert_send_sync::<crate::value::Value>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::value::Value;

    fn small_rel() -> Relation {
        Relation::new(Schema::from_names(&["a"]), vec![tuple![1], tuple![2]]).unwrap()
    }

    #[test]
    fn create_lookup_and_drop() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        assert!(db.has_table("r"));
        assert!(db.has_table("R"));
        assert_eq!(db.table("R").unwrap().len(), 2);
        assert_eq!(db.table_schema("r").unwrap().arity(), 1);
        assert!(db.drop_table("R").is_some());
        assert!(!db.has_table("r"));
        assert!(db.table("R").is_err());
    }

    #[test]
    fn duplicate_create_fails() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        assert!(matches!(
            db.create_table("r", small_rel()),
            Err(StorageError::DuplicateRelation(_))
        ));
        db.create_or_replace_table("r", small_rel());
    }

    #[test]
    fn total_tuples_sums_all_tables() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        db.create_table("S", small_rel()).unwrap();
        assert_eq!(db.total_tuples(), 4);
        assert_eq!(db.table_names(), vec!["r".to_string(), "s".to_string()]);
    }

    #[test]
    fn clone_shares_relations_instead_of_copying() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        let snapshot = db.clone();
        assert!(Arc::ptr_eq(
            &db.table_arc("r").unwrap(),
            &snapshot.table_arc("r").unwrap()
        ));
        // Replacing a table in the original leaves the snapshot untouched
        // (copy-on-write at table granularity).
        db.create_or_replace_table(
            "r",
            Relation::new(Schema::from_names(&["a"]), vec![]).unwrap(),
        );
        assert_eq!(db.table("r").unwrap().len(), 0);
        assert_eq!(snapshot.table("r").unwrap().len(), 2);
    }

    #[test]
    fn every_mutation_takes_a_fresh_version_and_a_clone_keeps_it() {
        let mut db = Database::new();
        assert_eq!(db.version(), 0);
        db.create_table("R", small_rel()).unwrap();
        let created = db.version();
        assert_ne!(created, 0);
        // A refused create changes nothing.
        assert!(db.create_table("r", small_rel()).is_err());
        assert_eq!(db.version(), created);

        let mut copy = db.clone();
        assert_eq!(copy.version(), created, "a clone keeps its version");
        db.create_or_replace_table("r", small_rel());
        let replaced = db.version();
        assert_ne!(replaced, created);
        db.drop_table("r");
        assert_ne!(db.version(), replaced);
        assert_ne!(db.version(), created);

        // Two clones mutated the same way, independently, still differ.
        copy.create_or_replace_table("r", small_rel());
        assert_ne!(copy.version(), created);
        assert_ne!(copy.version(), replaced);
        assert_ne!(copy.version(), db.version());
    }

    /// A table of every lane kind: `i` Int, `f` Float with NULLs, `d`
    /// Date, `b` Bool, and three columns with no lane: `s` Str, `m` mixed
    /// Int and Float, `n` all NULL.
    fn lane_rel(rows: i64) -> Relation {
        let rows = (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    match i % 3 {
                        0 => Value::Null,
                        _ => Value::Float(i as f64 / 2.0),
                    },
                    Value::Date(i as i32),
                    Value::Bool(i % 2 == 0),
                    Value::str(format!("s{i}")),
                    match i % 2 {
                        0 => Value::Int(i),
                        _ => Value::Float(0.5),
                    },
                    Value::Null,
                ]
            })
            .collect();
        Relation::from_rows(
            Schema::from_names(&["i", "f", "d", "b", "s", "m", "n"]),
            rows,
        )
    }

    #[test]
    fn stored_lanes_equal_the_lanes_transposed_from_the_rows() {
        let mut db = Database::new();
        db.create_table("t", lane_rel(130)).unwrap();
        let (rel, lanes) = (db.table("t").unwrap(), db.table_lanes("t").unwrap());
        for column in 0..4 {
            let lane = lanes.lane(column).expect("a uniform column has a lane");
            assert!(lane.is_typed());
            let transposed: Vec<Value> =
                rel.tuples().iter().map(|t| t.get(column).clone()).collect();
            assert_eq!(lane.clone().to_values(), transposed, "column {column}");
        }
        for column in 4..8 {
            assert!(lanes.lane(column).is_none(), "column {column} has no lane");
        }
    }

    #[test]
    fn replacing_a_table_rebuilds_its_lanes_and_a_clone_shares_them() {
        let mut db = Database::new();
        db.create_table("t", lane_rel(3)).unwrap();
        let snapshot = db.clone();
        assert!(std::ptr::eq(
            db.table_lanes("t").unwrap(),
            snapshot.table_lanes("t").unwrap()
        ));
        db.create_or_replace_table("t", lane_rel(5));
        assert_eq!(db.table_lanes("t").unwrap().lane(0).unwrap().len(), 5);
        assert_eq!(snapshot.table_lanes("t").unwrap().lane(0).unwrap().len(), 3);
        // A replace with other column types: a lane where there was none,
        // none where there was one.
        let swapped = Relation::from_rows(
            Schema::from_names(&["a", "b"]),
            vec![vec![Value::str("x"), Value::Int(1)]],
        );
        db.create_or_replace_table("t", swapped);
        let lanes = db.table_lanes("t").unwrap();
        assert!(lanes.lane(0).is_none());
        assert_eq!(lanes.lane(1).unwrap().value_at(0), Value::Int(1));
        assert!(db.drop_table("t").is_some());
        assert!(db.table_lanes("t").is_err());
    }

    #[test]
    fn drop_table_recovers_or_clones_shared_relations() {
        let mut db = Database::new();
        db.create_table("R", small_rel()).unwrap();
        let held = db.table_arc("r").unwrap();
        // Still shared: the drop must clone, and the held handle stays valid.
        let dropped = db.drop_table("R").unwrap();
        assert_eq!(dropped.len(), 2);
        assert_eq!(held.len(), 2);
    }
}
